package videorec

import (
	"context"
	"fmt"
	"time"

	"videorec/internal/core"
)

// BatchRequest is one query inside a coalesced batch: a stored clip id, the
// requested result count, and an optional per-request context. A nil Ctx
// means the request is bounded only by the batch context passed to
// RecommendBatchCtx.
type BatchRequest struct {
	ClipID string
	TopK   int
	Ctx    context.Context
}

// BatchAnswer is one request's answer. Requests that asked for the same
// (ClipID, TopK) share one Results slice — treat it as read-only, exactly
// like the results of two concurrent Recommend calls for the same clip.
type BatchAnswer struct {
	Results []Recommendation
	Meta    RecommendMeta
	Err     error
}

// RecommendBatch answers a batch of stored-clip queries in one shared pass.
// Equivalent to RecommendBatchCtx with a background batch context.
func (e *Engine) RecommendBatch(reqs []BatchRequest) []BatchAnswer {
	return e.RecommendBatchCtx(context.Background(), reqs)
}

// RecommendBatchCtx answers a batch of stored-clip queries against ONE
// loaded view, sharing work across the batch:
//
//   - Duplicate (ClipID, TopK) requests — the common case under Zipf-shaped
//     click traffic — are computed once and fanned back to every requester.
//   - Distinct requests share candidate generation: one merged pass over the
//     inverted files and one LSB walk set-up per batch chunk instead of one
//     per query (see core.RecommendBatch).
//
// Per-request answers are bit-identical to serial RecommendCtx calls. The
// batch context bounds the whole batch (a serving layer passes its base
// context); each request's own Ctx bounds that request alone — a cancelled
// request settles with its context error while the rest of the batch
// completes, and the request with the nearest deadline degrades (or fails)
// without dragging its cohort down. A deduplicated group of requests runs
// until the LAST member's deadline, and each member is then settled against
// its own context.
func (e *Engine) RecommendBatchCtx(ctx context.Context, reqs []BatchRequest) []BatchAnswer {
	if ctx == nil {
		ctx = context.Background()
	}
	answers := make([]BatchAnswer, len(reqs))
	if len(reqs) == 0 {
		return answers
	}
	cur := e.cur.Load()
	for i := range answers {
		answers[i].Meta.ViewVersion = cur.version
	}
	if !cur.view.Built() {
		for i := range answers {
			answers[i].Err = ErrNotBuilt
		}
		return answers
	}

	// Group identical (ClipID, TopK) requests behind one BatchItem, keeping
	// first-seen order so the computed batch is deterministic.
	type groupKey struct {
		clipID string
		topK   int
	}
	type group struct {
		item    core.BatchItem
		exclude [1]string
		members []int
		cancel  context.CancelFunc
	}
	groups := make(map[groupKey]*group, len(reqs))
	ordered := make([]*group, 0, len(reqs))
	for i, req := range reqs {
		if rctx := req.Ctx; rctx != nil && rctx.Err() != nil {
			answers[i].Err = rctx.Err()
			continue
		}
		if !cur.view.Has(req.ClipID) {
			answers[i].Err = fmt.Errorf("%w: %s", ErrNotFound, req.ClipID)
			continue
		}
		k := groupKey{req.ClipID, req.TopK}
		g, ok := groups[k]
		if !ok {
			q, _ := cur.view.QueryFor(req.ClipID)
			g = &group{item: core.BatchItem{Query: q, TopK: req.TopK}}
			g.exclude[0] = req.ClipID
			g.item.Exclude = g.exclude[:]
			groups[k] = g
			ordered = append(ordered, g)
		}
		g.members = append(g.members, i)
	}
	if len(ordered) == 0 {
		return answers
	}

	// A singleton group keeps its member's context verbatim — exact serial
	// semantics, including that member's own deadline driving degradation. A
	// shared group must outlive every member, so it runs under the LATEST
	// member deadline (or the plain batch context when any member is
	// unbounded); members are re-checked against their own contexts below.
	items := make([]core.BatchItem, len(ordered))
	for gi, g := range ordered {
		if len(g.members) == 1 {
			g.item.Ctx = reqs[g.members[0]].Ctx
		} else {
			var latest time.Time
			bounded := true
			for _, m := range g.members {
				rctx := reqs[m].Ctx
				if rctx == nil {
					bounded = false
					break
				}
				d, ok := rctx.Deadline()
				if !ok {
					bounded = false
					break
				}
				if d.After(latest) {
					latest = d
				}
			}
			if bounded {
				g.item.Ctx, g.cancel = context.WithDeadline(ctx, latest)
			}
		}
		items[gi] = g.item
	}

	outs := cur.view.RecommendBatch(ctx, items)

	for gi, g := range ordered {
		out := outs[gi]
		var shared []Recommendation
		if out.Err == nil {
			shared = convert(out.Results)
		}
		for _, m := range g.members {
			if rctx := reqs[m].Ctx; rctx != nil && rctx.Err() != nil {
				answers[m].Err = rctx.Err()
				continue
			}
			if out.Err != nil {
				answers[m].Err = out.Err
				continue
			}
			answers[m].Results = shared
			answers[m].Meta.Degraded = out.Info.Degraded
			answers[m].Meta.Candidates, answers[m].Meta.Refined = out.Info.Candidates, out.Info.Refined
		}
		if g.cancel != nil {
			g.cancel()
		}
	}
	return answers
}
