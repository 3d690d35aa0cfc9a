package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/faults"
)

// batchShardAnswer is one shard's contribution to a batched fan-out: a
// per-item output slice, or the reason the whole dispatch has none.
type batchShardAnswer struct {
	outs    []core.BatchOut
	err     error // whole-dispatch failure: fault site, panic, open breaker
	probe   bool
	skipped bool
}

// RecommendBatch answers a batch of stored-clip queries by scatter-gather.
// Equivalent to RecommendBatchCtx with a background batch context.
func (r *Router) RecommendBatch(reqs []videorec.BatchRequest) []videorec.BatchAnswer {
	return r.RecommendBatchCtx(context.Background(), reqs)
}

// RecommendBatchCtx fans a whole batch of stored-clip queries out to every
// shard in ONE dispatch per shard and merges per query, composing batching
// with the router's fault-tolerance machinery:
//
//   - Duplicate (ClipID, TopK) requests are computed once per shard and
//     fanned back to every requester, exactly like Engine.RecommendBatchCtx.
//   - Each shard runs the whole batch under one per-shard budget (deadline −
//     ShardMargin) and one breaker admission — a batch is one unit of
//     evidence for the breaker, not len(reqs) units, so a single slow batch
//     cannot slam a healthy shard's breaker open.
//   - Quorum is settled per query: a query whose surviving shard count stays
//     at or above MinShardQuorum merges the survivors' lists (marked
//     Degraded with ShardsFailed set when any shard dropped out); below
//     quorum it fails with ErrQuorum. A request cancelled by its own Ctx
//     settles with that context error and is never counted against a shard.
//
// Per-query merged rankings are bit-identical to serial RecommendCtx calls
// through the same router.
func (r *Router) RecommendBatchCtx(ctx context.Context, reqs []videorec.BatchRequest) []videorec.BatchAnswer {
	if ctx == nil {
		ctx = context.Background()
	}
	answers := make([]videorec.BatchAnswer, len(reqs))
	if len(reqs) == 0 {
		return answers
	}
	s := r.set()
	res := r.res.Load()
	fp := r.fingerprint(s)
	for i := range answers {
		answers[i].Meta.ViewVersion = fp
	}
	views := make([]*core.View, len(s.engines))
	for i, e := range s.engines {
		views[i], _ = e.CurrentView()
		if !views[i].Built() {
			for j := range answers {
				answers[j].Err = videorec.ErrNotBuilt
			}
			return answers
		}
	}

	// Group identical (ClipID, TopK) requests behind one fan-out item,
	// resolving each clip's query from whichever shard owns it and keying the
	// content-index positions once for the whole fleet (all shards share one
	// forest fingerprint).
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
		k := groupKey{req.ClipID, req.TopK}
		g, ok := groups[k]
		if !ok {
			var q core.Query
			found := false
			for _, v := range views {
				if qq, qok := v.QueryFor(req.ClipID); qok {
					q, found = qq, true
					break
				}
			}
			if !found {
				answers[i].Err = fmt.Errorf("%w: %s", videorec.ErrNotFound, req.ClipID)
				continue
			}
			if len(views) > 1 {
				q = views[0].PrimeContentKeys(q)
			}
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

	// Per-group contexts follow the engine's dedup rule: a singleton keeps
	// its member's context verbatim; a shared group runs until the LAST
	// member's deadline (or unbounded under the batch context) and members
	// are re-checked individually at settlement.
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
	defer func() {
		for _, g := range ordered {
			if g.cancel != nil {
				g.cancel()
			}
		}
	}()

	// One budget window and one breaker admission per shard for the whole
	// batch — the batched form of fanOut's per-shard dispatch.
	var budget time.Duration
	if res.ShardMargin > 0 {
		if d, ok := ctx.Deadline(); ok {
			budget = time.Until(d.Add(-res.ShardMargin))
		}
	}
	shardOuts := make([]batchShardAnswer, len(views))
	dispatch := func(i int, v *core.View) {
		a := &shardOuts[i]
		ok, probe := s.breakers[i].allow()
		if !ok {
			a.err, a.skipped = errBreakerOpen, true
			return
		}
		a.probe = probe
		s.batchDispatched[i].Add(1)
		callCtx := ctx
		if budget > 0 {
			var cancel context.CancelFunc
			callCtx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		a.outs, a.err = callShardBatch(callCtx, i, v, items)
	}
	if len(views) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i, v := range views {
			if err := ctx.Err(); err != nil {
				shardOuts[i].err, shardOuts[i].skipped = err, true
				continue
			}
			dispatch(i, v)
		}
	} else {
		var wg sync.WaitGroup
		for i, v := range views {
			wg.Add(1)
			go func(i int, v *core.View) {
				defer wg.Done()
				dispatch(i, v)
			}(i, v)
		}
		wg.Wait()
	}

	// Settle breakers on whole-shard evidence. A shard failed the batch when
	// its dispatch erred outright, or when any item's answer erred while that
	// item's own context was still alive — a per-item error under a live item
	// context is the shard's doing (budget timeout, injected fault inside
	// refine), whereas an item its requester cancelled proves nothing.
	if ctxErr := ctx.Err(); ctxErr != nil {
		for i := range shardOuts {
			a := &shardOuts[i]
			switch {
			case a.err == nil && !shardFailedItems(a.outs, items):
				s.breakers[i].success(a.probe)
			case a.probe:
				s.breakers[i].abortProbe()
			}
		}
		for i := range answers {
			if answers[i].Err == nil {
				answers[i].Err = ctxErr
			}
		}
		return answers
	}
	shardDead := make([]bool, len(views))
	for i := range shardOuts {
		a := &shardOuts[i]
		failed := a.err != nil || shardFailedItems(a.outs, items)
		shardDead[i] = failed
		if !failed {
			s.breakers[i].success(a.probe)
			continue
		}
		if !a.skipped {
			r.shardFailTotal.Add(1)
			if s.breakers[i].failure(a.probe) {
				r.breakerOpenTotal.Add(1)
			}
		}
	}

	// Per-query settlement: quorum over the shards that answered this item,
	// then the same (score desc, id asc) merge as the serial fan-out.
	need := res.quorum(len(views))
	for gi, g := range ordered {
		var (
			okShards            int
			degraded            bool
			candidates, refined int
			shardErrs           []error
		)
		for i := range shardOuts {
			a := &shardOuts[i]
			switch {
			case a.err != nil:
				shardErrs = append(shardErrs, fmt.Errorf("shard %d: %w", i, a.err))
			case a.outs[gi].Err != nil:
				shardErrs = append(shardErrs, fmt.Errorf("shard %d: %w", i, a.outs[gi].Err))
			default:
				okShards++
				if a.outs[gi].Info.Degraded {
					degraded = true
				}
				candidates += a.outs[gi].Info.Candidates
				refined += a.outs[gi].Info.Refined
			}
		}
		var groupErr error
		var shared []videorec.Recommendation
		meta := videorec.RecommendMeta{ViewVersion: fp, ShardsTotal: len(views)}
		if itemErr := itemCtxErr(g.item.Ctx); itemErr != nil && okShards < len(views) {
			// The group's own context died mid-flight: the missing shard
			// answers are the request's doing, not the shards'.
			groupErr = itemErr
		} else if okShards < need {
			r.quorumLostTotal.Add(1)
			groupErr = fmt.Errorf("%w: %d of %d shards answered, need %d: %w",
				ErrQuorum, okShards, len(views), need, errors.Join(shardErrs...))
		} else {
			if okShards < len(views) {
				degraded = true
				meta.ShardsFailed = len(views) - okShards
			}
			merged := MergeTopK(g.item.TopK, func(yield func([]core.Result)) {
				for i := range shardOuts {
					if shardOuts[i].err == nil && shardOuts[i].outs[gi].Err == nil {
						yield(shardOuts[i].outs[gi].Results)
					}
				}
			})
			meta.Degraded, meta.Candidates, meta.Refined = degraded, candidates, refined
			shared = make([]videorec.Recommendation, len(merged))
			for i, res := range merged {
				shared[i] = videorec.Recommendation{
					VideoID: res.VideoID,
					Score:   res.Score,
					Content: res.Content,
					Social:  res.Social,
				}
			}
		}
		for _, m := range g.members {
			if rctx := reqs[m].Ctx; rctx != nil && rctx.Err() != nil {
				answers[m].Err = rctx.Err()
				continue
			}
			if groupErr != nil {
				answers[m].Err = groupErr
				continue
			}
			answers[m].Results = shared
			answers[m].Meta = meta
		}
	}
	return answers
}

// callShardBatch runs one shard's slice of a batched fan-out: the same fault
// sites as callShard — fired ONCE per shard per batch, the unit the breaker
// reasons about — then the shard view's batched pipeline. A panic becomes a
// whole-dispatch failure.
func callShardBatch(ctx context.Context, i int, v *core.View, items []core.BatchItem) (outs []core.BatchOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, fmt.Errorf("shard: shard %d panicked: %v", i, p)
		}
	}()
	if err := faults.Inject(FaultFanOut); err != nil {
		return nil, err
	}
	if err := faults.Inject(SiteForShard(FaultFanOut, i)); err != nil {
		return nil, err
	}
	if err := faults.Inject(FaultFanOutSlow); err != nil {
		return nil, err
	}
	if err := faults.Inject(SiteForShard(FaultFanOutSlow, i)); err != nil {
		return nil, err
	}
	return v.RecommendBatch(ctx, items), nil
}

// shardFailedItems reports whether any item of a shard's batch answer erred
// while the item's own context was alive — the shard-attributable failure
// shape (budget exhaustion, internal fault); items their requesters
// cancelled are excluded.
func shardFailedItems(outs []core.BatchOut, items []core.BatchItem) bool {
	for j := range outs {
		if outs[j].Err != nil && itemCtxErr(items[j].Ctx) == nil {
			return true
		}
	}
	return false
}

// itemCtxErr is ctx.Err tolerant of the nil item context.
func itemCtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
