package core

import (
	"context"
	"math/bits"
	"time"

	"videorec/internal/social"
	"videorec/internal/topk"
)

// MaxSharedGather is the number of queries one shared candidate-generation
// pass covers: the per-dimension query-membership masks of the batched
// posting-list merge are single machine words, one bit per query. Larger
// batches are transparently processed in chunks of this size.
const MaxSharedGather = 64

// BatchItem is one query of a batched recommendation call. Ctx, when
// non-nil, carries the query's own deadline/cancellation; nil means the
// batch-level context governs it alone.
type BatchItem struct {
	Ctx     context.Context
	Query   Query
	TopK    int
	Exclude []string
}

// BatchOut is one query's answer from a batched call: exactly what
// RecommendCtx would have returned for the same query against the same view.
type BatchOut struct {
	Results []Result
	Info    RecommendInfo
	Err     error
}

// batchItemState is the per-query bookkeeping of one chunk: the query's
// pooled scratch, its cancellation channels, its effective deadline (the
// earlier of its own and the batch's), and its settlement status.
type batchItemState struct {
	qs          *queryScratch
	ctx         context.Context // the item's own context (bctx when none given)
	idone       <-chan struct{} // item ctx done channel (nil when ctx == bctx)
	sel         *topk.Selector[scoredCand]
	offers      int
	useContent  bool
	useSocial   bool
	deadline    time.Time
	hasDeadline bool
	skip        bool // settled (answered, failed, or empty); no further work
}

// batchScratch is the chunk-wide reusable state of a batched call, pooled
// per view: per-dimension query masks, the shared-merge cursors and the
// refine order permutation. Everything per query lives in that query's
// pooled queryScratch, exactly as in serial serving.
type batchScratch struct {
	states  []batchItemState
	dimMask []uint64   // dim → chunk-membership mask; all-zero between calls
	dims    []uint32   // dims with a nonzero mask, in first-touch order
	heads   [][]uint32 // posting-list cursors of the shared merge
	masks   []uint64   // membership mask per cursor
	order   []int      // refine order: earliest effective deadline first
}

// dead reports whether the item's own context or the batch context has been
// cancelled.
func (st *batchItemState) dead(gdone <-chan struct{}) bool {
	return ctxDone(st.idone) || ctxDone(gdone)
}

// failErr attributes a detected cancellation: the item's own context error
// wins (the caller maps it to the query, not the batch), the batch context's
// otherwise.
func (st *batchItemState) failErr(bctx context.Context) error {
	if err := st.ctx.Err(); err != nil {
		return err
	}
	if err := bctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// RecommendBatch answers every item against this view in one batched pass:
// candidate generation is shared across the batch (one merge over the
// touched posting lists, per-query membership masks) and each query is then
// refined by the same bounded best-first search as a serial one. Each
// item's answer is bit-identical to what RecommendCtx would return for the
// same query, deadline and view — batching changes cost, never results.
//
// bctx bounds the whole batch (a fan-out budget, the server's base context);
// each item's own Ctx additionally bounds just that item. A cancelled item
// settles with its own ctx error and drops out without disturbing its
// cohort. Items are refined earliest-effective-deadline first, and each
// item's degrade decision (Options.DegradeMargin) is made against its own
// effective deadline exactly as in serial serving.
func (v *View) RecommendBatch(bctx context.Context, items []BatchItem) []BatchOut {
	outs := make([]BatchOut, len(items))
	v.RecommendBatchInto(bctx, items, outs)
	return outs
}

// RecommendBatchInto is RecommendBatch writing into caller-owned output
// slots, reusing each out's Results capacity — the steady state of a warm
// serving loop allocates nothing. len(outs) must equal len(items).
func (v *View) RecommendBatchInto(bctx context.Context, items []BatchItem, outs []BatchOut) {
	if len(items) != len(outs) {
		panic("core: RecommendBatchInto items/outs length mismatch")
	}
	if bctx == nil {
		bctx = context.Background()
	}
	for start := 0; start < len(items); start += MaxSharedGather {
		end := start + MaxSharedGather
		if end > len(items) {
			end = len(items)
		}
		v.recommendChunk(bctx, items[start:end], outs[start:end])
	}
}

// settleBatchErr fails one item mid-batch: its answer becomes the attributed
// context error, its scratch goes back to the pool, and the rest of the
// chunk proceeds untouched.
func (v *View) settleBatchErr(st *batchItemState, out *BatchOut, bctx context.Context) {
	out.Results = out.Results[:0]
	out.Err = st.failErr(bctx)
	if st.qs != nil {
		v.putScratch(st.qs)
		st.qs = nil
	}
	st.skip = true
}

// recommendChunk runs one ≤MaxSharedGather-item chunk through gather and
// refinement.
func (v *View) recommendChunk(bctx context.Context, items []BatchItem, outs []BatchOut) {
	bs := v.batch.Get().(*batchScratch)
	gdone := bctx.Done()
	bDeadline, bHasDeadline := bctx.Deadline()

	if cap(bs.states) < len(items) {
		bs.states = make([]batchItemState, len(items))
	}
	states := bs.states[:len(items)]
	defer func() {
		for b := range states {
			if states[b].qs != nil {
				v.putScratch(states[b].qs)
			}
			states[b] = batchItemState{} // drop ctx/scratch references before pooling
		}
		v.batch.Put(bs)
	}()

	// Per-item setup: contexts, effective deadlines, exclusions, query
	// vectors — exactly the preamble RecommendCtx runs per query.
	for b := range items {
		it := &items[b]
		st := &states[b]
		out := &outs[b]
		out.Results = out.Results[:0]
		out.Info = RecommendInfo{}
		out.Err = nil
		*st = batchItemState{ctx: it.Ctx, skip: true}
		if st.ctx == nil {
			st.ctx = bctx
		} else if st.ctx != bctx {
			st.idone = st.ctx.Done()
		}
		if it.TopK <= 0 {
			continue // empty answer, matching RecommendCtx's nil result
		}
		if err := st.ctx.Err(); err != nil {
			out.Err = err
			continue
		}
		if err := bctx.Err(); err != nil {
			out.Err = err
			continue
		}
		st.skip = false
		st.deadline, st.hasDeadline = st.ctx.Deadline()
		if bHasDeadline && (!st.hasDeadline || bDeadline.Before(st.deadline)) {
			st.deadline, st.hasDeadline = bDeadline, true
		}
		st.useSocial = !v.opts.ContentWeightOnly
		st.useContent = !v.opts.SocialOnly
		st.qs = v.getScratch()
		v.resolveExcludes(st.qs, it.Exclude)
		if st.useSocial && v.opts.Mode != ModeExact {
			v.mustBuild()
			st.qs.qvec = social.VectorizeInto(st.qs.qvec, it.Query.Desc, v.look, v.part.Dim)
		}
	}

	v.gatherBatch(bctx, gdone, bs, items, states, outs)

	// Refine earliest-effective-deadline first: the deadline-nearest query
	// sets where in the batch degradation starts to bite, and every later
	// query re-checks its own margin at its own refine start. Insertion sort
	// over the index permutation — chunks are at most 64 items and the sort
	// must not allocate.
	order := bs.order[:0]
	for b := range states {
		if !states[b].skip {
			order = append(order, b)
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && deadlineBefore(&states[order[j]], &states[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	bs.order = order

	for _, b := range order {
		st := &states[b]
		it := &items[b]
		out := &outs[b]
		out.Info.Candidates = len(st.qs.merged)
		canDegrade := st.useContent && st.useSocial && v.opts.DegradeMargin > 0
		if canDegrade && st.hasDeadline && time.Until(st.deadline) < v.opts.DegradeMargin {
			v.finishCoarseBatch(bctx, st, it, out, true)
			continue
		}
		results, refined, err := v.refineBatchItem(bctx, st, it, out.Results)
		if err != nil {
			if canDegrade && err == context.DeadlineExceeded {
				// The deadline expired mid-refinement: the coarse answer is
				// still owed, computed without further polling (the serial
				// path's context.WithoutCancel).
				v.finishCoarseBatch(bctx, st, it, out, false)
				continue
			}
			out.Results = out.Results[:0]
			out.Err = err
			continue
		}
		out.Results, out.Info.Refined = results, refined
	}
}

// deadlineBefore orders items for refinement: deadlines before no-deadline,
// earlier deadlines first. Strict, so the insertion sort is stable and the
// order deterministic.
func deadlineBefore(a, b *batchItemState) bool {
	if !a.hasDeadline {
		return false
	}
	if !b.hasDeadline {
		return true
	}
	return a.deadline.Before(b.deadline)
}

// gatherBatch fills every active item's candidate set — the batched steps
// 1–2 of the Figure 6 KNN search. The social union runs ONCE for the whole
// chunk: every posting list touched by any query enters a shared ascending
// merge carrying a per-dimension membership mask, and each emitted candidate
// is offered to exactly the queries whose dimensions contained it — per
// query, the identical candidates in the identical (ascending dense index)
// order as its private Union, so selector outcomes are bit-identical to
// serial gathering. Content expansion stays per-query (the LCP walk order
// is query-specific), as does the full-scan path.
func (v *View) gatherBatch(bctx context.Context, gdone <-chan struct{}, bs *batchScratch, items []BatchItem, states []batchItemState, outs []BatchOut) {
	if v.opts.FullScan || (v.opts.Mode == ModeExact && !v.opts.ContentWeightOnly) {
		// Unoptimized CSF / exhaustive ranking: every stored video, per item.
		for b := range states {
			st := &states[b]
			if st.skip {
				continue
			}
			for i, rec := range v.recs.All() {
				if i%cancelCheckStride == 0 && st.dead(gdone) {
					v.settleBatchErr(st, &outs[b], bctx)
					break
				}
				if rec == nil || st.qs.excl.Has(uint32(i)) {
					continue
				}
				st.qs.merged = append(st.qs.merged, uint32(i))
			}
		}
		return
	}

	for b := range states {
		if !states[b].skip {
			states[b].qs.cand.Grow(v.ids.Len())
		}
	}
	if !v.opts.ContentWeightOnly {
		v.gatherBatchSocial(bctx, gdone, bs, states, outs)
	}
	if !v.opts.SocialOnly {
		v.gatherBatchContent(bctx, gdone, items, states, outs)
	}
}

// gatherBatchSocial is the shared step-1 pass described on gatherBatch.
func (v *View) gatherBatchSocial(bctx context.Context, gdone <-chan struct{}, bs *batchScratch, states []batchItemState, outs []BatchOut) {
	dims := v.inv.Dims()
	bs.dimMask = growZeroed(bs.dimMask, dims)
	for b := range states {
		st := &states[b]
		if st.skip {
			continue
		}
		st.sel = st.qs.selector(v, v.opts.CandidateLimit)
		for d, x := range st.qs.qvec {
			if x <= 0 || d >= dims || v.inv.DimLen(d) == 0 {
				continue
			}
			if bs.dimMask[d] == 0 {
				bs.dims = append(bs.dims, uint32(d))
			}
			bs.dimMask[d] |= 1 << uint(b)
		}
	}
	heads := bs.heads[:0]
	masks := bs.masks[:0]
	for _, d := range bs.dims {
		heads = append(heads, v.inv.Postings(int(d)))
		masks = append(masks, bs.dimMask[d])
		bs.dimMask[d] = 0 // restore the all-zero invariant as we consume
	}
	bs.dims = bs.dims[:0]
	bs.heads, bs.masks = heads, masks

	// Shared ascending merge over every touched posting list. Lists number
	// at most the partition dimension (tens), so a linear min scan beats
	// heap bookkeeping and keeps the loop branch-predictable.
	for len(heads) > 0 {
		lo := heads[0][0]
		for hi := 1; hi < len(heads); hi++ {
			if heads[hi][0] < lo {
				lo = heads[hi][0]
			}
		}
		var mask uint64
		for hi := 0; hi < len(heads); {
			if heads[hi][0] != lo {
				hi++
				continue
			}
			mask |= masks[hi]
			if rest := heads[hi][1:]; len(rest) > 0 {
				heads[hi] = rest
				hi++
			} else {
				last := len(heads) - 1
				heads[hi] = heads[last]
				masks[hi] = masks[last]
				heads = heads[:last]
				masks = masks[:last]
			}
		}
		for m := mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			st := &states[b]
			if st.skip {
				continue
			}
			if st.offers%cancelCheckStride == 0 && st.dead(gdone) {
				v.settleBatchErr(st, &outs[b], bctx)
				continue
			}
			st.offers++
			st.sel.Offer(scoredCand{i: lo, s: social.ApproxJaccard(st.qs.qvec, v.recs.At(lo).Vec)})
		}
	}
	bs.heads = bs.heads[:0]
	bs.masks = bs.masks[:0]

	for b := range states {
		st := &states[b]
		if st.skip {
			continue
		}
		for _, sc := range st.sel.Items() {
			st.qs.addCandidate(sc.i)
		}
	}
}

// gatherBatchContent runs the per-query step-2 LCP expansion, identical to
// the serial path (precomputed content keys honored per query).
func (v *View) gatherBatchContent(bctx context.Context, gdone <-chan struct{}, items []BatchItem, states []batchItemState, outs []BatchOut) {
	for b := range states {
		st := &states[b]
		if st.skip {
			continue
		}
		q := &items[b].Query
		if q.contentKeys != nil && q.keyFP == v.lsb.KeyFingerprint() {
			st.qs.walker.ResetWithKeys(v.lsb, q.Series, q.contentKeys)
		} else {
			st.qs.walker.Reset(v.lsb, q.Series)
		}
		added := 0
		for pops := 0; pops < v.opts.ContentProbe; pops++ {
			if pops%cancelCheckStride == 0 && st.dead(gdone) {
				v.settleBatchErr(st, &outs[b], bctx)
				break
			}
			e, _, ok := st.qs.walker.Next()
			if !ok {
				break
			}
			if v.tombstones.Has(e.Video) || st.qs.cand.Has(e.Video) {
				continue
			}
			st.qs.addCandidate(e.Video)
			added++
			if added >= 2*v.opts.CandidateLimit {
				break
			}
		}
	}
}

// refineBatchItem is the serial refine for one batched item: the same
// bounded search on the calling goroutine, cancelled by the item's own
// context or the batch's, draining into the item's recycled output buffer.
func (v *View) refineBatchItem(bctx context.Context, st *batchItemState, it *BatchItem, dst []Result) ([]Result, int, error) {
	job := &st.qs.job
	*job = refineJob{v: v, q: it.Query, qs: st.qs, useContent: st.useContent, useSocial: st.useSocial}
	if gdone := bctx.Done(); st.idone != nil || gdone != nil {
		job.cancelled = func() bool { return st.dead(gdone) }
		job.cause = func() error { return st.failErr(bctx) }
	}
	return job.refine(it.TopK, 1, dst)
}

// finishCoarseBatch is finishCoarse for one batched item: the coarse social
// ranking over its gathered candidates, flagged Degraded. poll mirrors the
// serial path's two entries — live polling on the up-front degrade, none
// after a mid-refinement expiry (WithoutCancel semantics).
func (v *View) finishCoarseBatch(bctx context.Context, st *batchItemState, it *BatchItem, out *BatchOut, poll bool) {
	qs := st.qs
	gdone := bctx.Done()
	results := qs.resultSlots(len(qs.merged))
	for i, idx := range qs.merged {
		if poll && i%cancelCheckStride == 0 && st.dead(gdone) {
			out.Results = out.Results[:0]
			out.Err = st.failErr(bctx)
			return
		}
		soc := v.socialRelevanceRec(it.Query, qs.qvec, v.recs.At(idx))
		results[i] = Result{VideoID: v.ids.At(idx), Score: soc, Social: soc}
	}
	out.Info.Degraded = true
	out.Results = qs.topK(out.Results, results, it.TopK)
}

// growZeroed resizes an all-zero scratch slice. Entries are always restored
// to zero by their consumer, so a capacity hit needs no clearing.
func growZeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
