package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videorec/internal/bitset"
	"videorec/internal/faults"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/topk"
)

// minParallelRefine is the candidate count below which step-3 refinement
// stays on the calling goroutine: spawning workers for a handful of κJ
// computations costs more than it saves.
const minParallelRefine = 16

// refineRoundPerWorker sizes a parallel refinement round: each worker gets a
// few candidates per spawn, and the stopping test runs between rounds.
const refineRoundPerWorker = 4

// cancelCheckStride bounds how many cheap candidate-gathering steps run
// between context polls.
const cancelCheckStride = 64

// RecommendInfo describes how a RecommendCtx query was answered.
type RecommendInfo struct {
	// Degraded is true when step-3 EMD refinement was skipped (deadline
	// already inside the degrade margin) or abandoned (deadline expired
	// mid-refinement) and the results carry only the coarse social ranking:
	// Score = s̃J, Content = 0.
	Degraded bool
	// Candidates is the number of candidates gathered for refinement.
	Candidates int
	// Refined is how many of them got a κJ before the top-K was decided (0
	// for a degraded answer).
	Refined int
}

// scoredCand is one social candidate (by dense index) with its s̃J score.
type scoredCand struct {
	i uint32
	s float64
}

// topCandidates reorders c so that its first min(limit, len(c)) entries are
// the best of c under (s desc, id asc), with ids read from the intern table,
// and returns them in no particular order. The order is total, so the kept
// set is exactly a full sort's prefix. A quickselect finds the limit-th
// largest score t; every entry above t is kept, and of the entries at t only
// the limit − above smallest ids are: only those ties compare strings. It
// runs in time linear in len(c) plus a sort of the ties, allocates nothing,
// and needs limit ≥ 1.
func topCandidates(c []scoredCand, limit int, ids *cowVec[string]) []scoredCand {
	if len(c) <= limit {
		return c
	}
	t := nthLargest(c, limit-1)
	// c[:limit] ≥ t ≥ c[limit:]: move the entries above t to the front and
	// the ties past limit up behind those before it, so c[above:end] is
	// every entry at t.
	above := 0
	for k := range c[:limit] {
		if c[k].s > t {
			c[above], c[k] = c[k], c[above]
			above++
		}
	}
	end := limit
	for k := limit; k < len(c); k++ {
		if c[k].s == t {
			c[end], c[k] = c[k], c[end]
			end++
		}
	}
	if end > limit {
		slices.SortFunc(c[above:end], func(a, b scoredCand) int { return strings.Compare(ids.At(a.i), ids.At(b.i)) })
	}
	return c[:limit]
}

// nthLargest reorders c around its k-th largest score (counting from 0) and
// returns that score t: afterwards every score in c[:k] is ≥ t, c[k].s = t,
// and every score in c[k+1:] is ≤ t. It is Hoare's selection with a
// median-of-three pivot. Hoare's partition stops on scores equal to the
// pivot from both sides and swaps them, so a run of equal scores splits
// evenly instead of costing quadratic time.
func nthLargest(c []scoredCand, k int) float64 {
	lo, hi := 0, len(c)-1
	for lo < hi {
		// Order c[lo] ≥ c[mid] ≥ c[hi]: the median is the pivot, and the two
		// ends stop both scans inside [lo, hi].
		mid := int(uint(lo+hi) >> 1)
		if c[mid].s > c[lo].s {
			c[lo], c[mid] = c[mid], c[lo]
		}
		if c[hi].s > c[mid].s {
			c[mid], c[hi] = c[hi], c[mid]
			if c[mid].s > c[lo].s {
				c[lo], c[mid] = c[mid], c[lo]
			}
		}
		p := c[mid].s
		i, j := lo-1, hi+1
		for {
			for i++; c[i].s > p; i++ {
			}
			for j--; c[j].s < p; j-- {
			}
			if i >= j {
				break
			}
			c[i], c[j] = c[j], c[i]
		}
		// c[lo..j] ≥ p ≥ c[j+1..hi], and lo ≤ j < hi.
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return c[k].s
}

// boundCand is one gathered candidate queued for refinement: its s̃J (exact,
// and known before any κJ) and the fused score it can reach at most — loose
// (from signature.KJEnvelopeBound) until refine tightens it with
// signature.KJUpperBound.
type boundCand struct {
	idx   uint32
	tight bool
	soc   float64
	bound float64
}

// before is the refinement order: higher bound first, then smaller dense
// index. It is total, so the heap's pop order is a pure function of the
// bounds.
func before(a, b *boundCand) bool {
	if c := cmp.Compare(a.bound, b.bound); c != 0 {
		return c > 0
	}
	return a.idx < b.idx
}

// siftDown restores the heap order below h[i].
func siftDown(h []boundCand, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// queryScratch is everything one query needs beyond its inputs: the query
// vector and its s̃J accumulator, the candidate and exclude bitsets, the
// merged candidate-index buffer, the LCP walker, the scored social
// candidates, the refinement order, result slots and selector, and a
// serial-path EMD scratch. It is pooled per view (View.scratch), so a
// steady-state query allocates only its answer.
type queryScratch struct {
	qvec    social.Vector
	qmass   uint32     // |q| = Σ qvec
	acc     []uint32   // Σ_d min(q_d, v_d) per dense index; zero off hit
	hit     []uint32   // slots of acc the query made non-zero, first touch first
	cand    bitset.Set // candidate membership, keyed by dense index
	excl    bitset.Set // per-query exclusions, keyed by dense index
	exclIdx []uint32   // bits set in excl, for cheap clearing
	touched []uint32   // bits set in cand, for cheap clearing
	merged  []uint32   // gathered candidates (exclusions already applied)
	walker  index.Walker
	scored  []scoredCand // every touched clip with its s̃J, for the budget cut
	bounds  []boundCand  // refinement heap; popped rounds collect behind it
	results []Result
	resSel  *topk.Selector[Result]
	kj      signature.KJScratch // serial refinement scratch, warm across queries
	job     refineJob
}

// addCandidate marks a dense index as gathered. Excluded indices still join
// the candidate bitset (they occupy budget exactly as the map-based path's
// post-hoc filtering behaved) but never reach the merged refinement list.
func (qs *queryScratch) addCandidate(i uint32) {
	qs.cand.Add(i)
	qs.touched = append(qs.touched, i)
	if !qs.excl.Has(i) {
		qs.merged = append(qs.merged, i)
	}
}

// getScratch hands out a pooled, cleared query scratch.
func (v *View) getScratch() *queryScratch {
	return v.scratch.Get().(*queryScratch)
}

// putScratch clears the scratch by undoing exactly the bits and sums it set —
// O(candidates + touched clips), not O(collection) — and returns it to the
// pool.
func (v *View) putScratch(qs *queryScratch) {
	for _, i := range qs.touched {
		qs.cand.Remove(i)
	}
	for _, i := range qs.hit {
		qs.acc[i] = 0
	}
	qs.hit = qs.hit[:0]
	for _, i := range qs.exclIdx {
		qs.excl.Remove(i)
	}
	qs.touched = qs.touched[:0]
	qs.exclIdx = qs.exclIdx[:0]
	qs.merged = qs.merged[:0]
	qs.results = qs.results[:0]
	qs.job = refineJob{} // drop the query's series and context closures
	v.scratch.Put(qs)
}

// resolveExcludes maps the excluded ids into the scratch's exclude bitset.
// Unknown ids are ignored — they cannot be candidates.
func (v *View) resolveExcludes(qs *queryScratch, exclude []string) {
	if len(exclude) == 0 {
		return
	}
	qs.excl.Grow(v.ids.Len())
	for _, id := range exclude {
		if i, ok := v.index(id); ok {
			qs.excl.Add(i)
			qs.exclIdx = append(qs.exclIdx, i)
		}
	}
}

// Recommend returns the topK highest-FJ videos for the query, excluding the
// ids in exclude (normally the query video itself). It implements the KNN
// search of Figure 6 against the frozen view:
//
//  1. vectorize the query's social descriptor and rank the inverted-file
//     candidates by s̃J;
//  2. expand content candidates from the LSB-tree in next-longest-common-
//     prefix order;
//  3. refine candidates with the fused FJ relevance, best score bound first,
//     until the top K is decided (see refine).
//
// The repeat-until-K loop of Figure 6 has no tight termination bound under
// LSH, so the implementation uses the explicit probe budgets of Options
// (ContentProbe walker pops, CandidateLimit refinements), which plays the
// role of the paper's stopping rule.
//
// Refinement is deterministic: a candidate is skipped only when its score
// bound proves it cannot enter the top K, so the parallel pool produces
// bit-identical rankings to the serial path (Options.RefineWorkers = 1)
// regardless of scheduling.
func (v *View) Recommend(q Query, topK int, exclude ...string) []Result {
	res, _, _ := v.RecommendCtx(context.Background(), q, topK, exclude...)
	return res
}

// RecommendCtx is Recommend with deadline-aware serving semantics:
//
//   - Cancellation is cooperative through the whole pipeline: candidate
//     gathering polls the context between probes and every refinement worker
//     polls it between EMD evaluations (signature.KJCancelCompiled), so a canceled
//     request stops burning CPU within about one EMD evaluation and returns
//     ctx.Err().
//   - Degradation is the deadline policy: when the deadline is already
//     within Options.DegradeMargin at refinement start — or expires while
//     refinement runs — the query is answered from the coarse social ranking
//     it already has (s̃J over SAR vectors) instead of failing with
//     DeadlineExceeded, and the result is flagged Degraded. A negative
//     DegradeMargin disables the fallback.
//
// Without a deadline or cancellation the results are bit-identical to
// Recommend.
func (v *View) RecommendCtx(ctx context.Context, q Query, topK int, exclude ...string) ([]Result, RecommendInfo, error) {
	var info RecommendInfo
	if topK <= 0 {
		return nil, info, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)

	if err := v.gather(ctx, q, qs); err != nil {
		return nil, info, err
	}
	info.Candidates = len(qs.merged)

	// Degrade up front when the deadline cannot plausibly fit a full EMD
	// refinement pass: answer with the coarse social ranking immediately.
	canDegrade := v.opts.DegradeMargin > 0
	if canDegrade {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < v.opts.DegradeMargin {
			return v.finishCoarse(ctx, qs, topK, &info)
		}
	}

	done := ctx.Done()
	job := &qs.job
	*job = refineJob{v: v, q: q, qs: qs}
	if done != nil {
		job.cancelled = func() bool { return ctxDone(done) }
		job.cause = ctx.Err
	}
	workers := v.opts.RefineWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results, refined, err := job.refine(topK, workers)
	if err != nil {
		// A deadline that expired mid-refinement still gets the coarse
		// answer; cancellation and injected faults propagate as errors.
		if canDegrade && err == context.DeadlineExceeded {
			return v.finishCoarse(context.WithoutCancel(ctx), qs, topK, &info)
		}
		return nil, info, err
	}
	info.Refined = refined
	return results, info, nil
}

// GatherCandidates runs candidate generation only — steps 1–2 of the
// Figure 6 KNN search, exactly as RecommendCtx performs them, without the
// step-3 refinement — and reports how many candidates survived exclusion.
// It exists for benchmarking and testing the gathering path in isolation;
// with a warm view it allocates nothing.
func (v *View) GatherCandidates(ctx context.Context, q Query, exclude ...string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)
	if err := v.gather(ctx, q, qs); err != nil {
		return 0, err
	}
	return len(qs.merged), nil
}

// gather fills qs.merged with the candidate set of steps 1–2, polling the
// context between probe steps. Candidates are dense video indices; the
// dense-index order is the deterministic order — no per-query id sort.
func (v *View) gather(ctx context.Context, q Query, qs *queryScratch) error {
	done := ctx.Done()
	v.mustBuild()
	qs.qvec = social.VectorizeInto(qs.qvec, q.Desc, v.table.Lookup, v.part.Dim)
	if !v.accumulate(done, qs) {
		return ctx.Err()
	}

	// Step 1: social candidates ranked by s̃J; keep the budgeted top. Every
	// clip the accumulation touched shares a dimension with the query;
	// topCandidates keeps the CandidateLimit best under (s̃J desc, id asc) in
	// linear time.
	qs.cand.Grow(v.ids.Len())
	sc := qs.scored[:0]
	for _, idx := range qs.hit {
		sc = append(sc, scoredCand{i: idx, s: qs.sparseSJ(v, idx)})
	}
	qs.scored = sc
	for _, c := range topCandidates(sc, v.opts.CandidateLimit, &v.ids) {
		qs.addCandidate(c.i)
	}

	// Step 2: content candidates in LCP order. The expansion budget counts
	// candidates *content itself adds*: a full social step no longer starves
	// content expansion by pre-filling the shared cap.
	if q.contentKeys != nil && q.keyFP == v.lsb.KeyFingerprint() {
		qs.walker.ResetWithKeys(v.lsb, q.contentKeys)
	} else {
		qs.walker.Reset(v.lsb, q.seriesOf())
	}
	added := 0
	for pops := 0; pops < v.opts.ContentProbe; pops++ {
		if pops%cancelCheckStride == 0 && ctxDone(done) {
			return ctx.Err()
		}
		e, _, ok := qs.walker.Next()
		if !ok {
			break
		}
		if v.tombstones.Has(e.Video) || qs.cand.Has(e.Video) {
			continue
		}
		qs.addCandidate(e.Video)
		added++
		if added >= 2*v.opts.CandidateLimit {
			break
		}
	}
	return nil
}

// accumulate is the term-at-a-time half of step 1: for every dimension the
// query touches it walks that impact posting list once, adding
// min(q_d, v_d) into qs.acc at the clip's dense index and recording each
// clip the first time it is touched (every term is ≥ 1, so a zero slot is an
// untouched one). It also sums |q|, and polls done every cancelCheckStride
// postings; it reports false when the query was cancelled.
func (v *View) accumulate(done <-chan struct{}, qs *queryScratch) bool {
	if n := v.ids.Len(); cap(qs.acc) >= n {
		qs.acc = qs.acc[:n] // slots past the old length were never written
	} else {
		qs.acc = make([]uint32, n)
	}
	qs.qmass = 0
	for d, x := range qs.qvec {
		if x <= 0 {
			continue
		}
		qd := uint32(x)
		qs.qmass += qd
		ids, counts := v.inv.Postings(d), v.inv.Counts(d)
		for lo := 0; lo < len(ids); lo += cancelCheckStride {
			if ctxDone(done) {
				return false
			}
			chunk := ids[lo:min(lo+cancelCheckStride, len(ids))]
			cs := counts[lo : lo+len(chunk)]
			for j, i := range chunk {
				if qs.acc[i] == 0 {
					qs.hit = append(qs.hit, i)
				}
				qs.acc[i] += min(qd, cs[j])
			}
		}
	}
	return true
}

// sparseSJ is Eq. 6's s̃J between the query and the clip at dense index i,
// from the accumulated m = Σ min(q_d, v_d): SAR vectors hold integer counts,
// so Σ min / Σ max = m / (|v| + |q| − m). Every partial sum of either form
// is an integer below 2^53 and exact in float64, so this divides the same
// two numbers social.ApproxJaccard does and is bit-identical to it, tails
// of unequal vector lengths included. A clip the query never touched has
// m = 0 and scores 0, as its dense s̃J does.
func (qs *queryScratch) sparseSJ(v *View, i uint32) float64 {
	m := qs.acc[i]
	den := uint64(v.mass.At(i)) + uint64(qs.qmass) - uint64(m)
	if den == 0 {
		return 0
	}
	return float64(m) / float64(den)
}

// ctxDone is a non-blocking poll of a context's done channel.
func ctxDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// finishCoarse ranks the candidate set by social relevance alone — the
// coarse SAR scores step 1 already paid for — skipping EMD refinement
// entirely. Each s̃J is one division over step 1's accumulated sums, orders
// of magnitude cheaper than κJ, so this path answers within any realistic
// margin. ctx is still honored (a hard cancel beats degradation).
func (v *View) finishCoarse(ctx context.Context, qs *queryScratch, topK int, info *RecommendInfo) ([]Result, RecommendInfo, error) {
	done := ctx.Done()
	sel := qs.resultSelector(topK)
	for i, idx := range qs.merged {
		if i%cancelCheckStride == 0 && ctxDone(done) {
			return nil, *info, ctx.Err()
		}
		soc := qs.sparseSJ(v, idx)
		sel.Offer(Result{VideoID: v.ids.At(idx), Score: soc, Social: soc})
	}
	info.Degraded = true
	return sel.Sorted(), *info, nil
}

// resultSlots returns the scratch's result buffer resized to n.
func (qs *queryScratch) resultSlots(n int) []Result {
	if cap(qs.results) >= n {
		qs.results = qs.results[:n]
	} else {
		qs.results = make([]Result, n)
	}
	return qs.results
}

// RanksBelow is the ranking order of every answer: a ranks strictly below b
// under (score desc, id asc). It is total, so a top-K selection under it
// equals sort-and-truncate, and merging the top-Ks of disjoint corpora under
// it reproduces the top-K of their union.
func RanksBelow(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.VideoID > b.VideoID
}

// resultSelector returns the scratch's (score desc, id asc) selector, emptied
// and sized for topK. The order is total, so its output equals
// sort-and-truncate; Sorted drains it into a fresh slice, so the answer never
// aliases pooled storage.
func (qs *queryScratch) resultSelector(topK int) *topk.Selector[Result] {
	if qs.resSel == nil {
		qs.resSel = topk.New(0, RanksBelow)
	}
	qs.resSel.Reset(topK)
	return qs.resSel
}

// refineJob is one query's step-3 refinement: the inputs every candidate's
// score needs, and how the query cancels. It lives in the pooled
// queryScratch so that refinement workers can share it without a per-query
// allocation.
type refineJob struct {
	v         *View
	q         Query
	qs        *queryScratch
	cancelled func() bool  // nil when nothing can cancel the query
	cause     func() error // the error a cancellation surfaces as

	qc *signature.CompiledSeries
}

// refine returns the topK best gathered candidates under the fused relevance
// and how many candidates it had to score to know them.
//
// s̃J is exact before any EMD runs, and two bounds on κJ read only the compiled
// series: signature.KJEnvelopeBound in O(n₁) from the stored series' centroid
// envelope, and the tighter signature.KJUpperBound in n₁ × n₂ sketch tests.
// fuse is monotone in κJ, rounding included, so fusing either with s̃J bounds
// a candidate's score. Every candidate enters a max-heap on its loose
// (envelope) bound. The top is then either loose — it gets KJUpperBound and
// sinks to its place — or tight, and is scored with the unchanged kernel. A
// loose bound is never below its tight one, so tight candidates leave the
// heap in (tight bound desc, idx asc) order, exactly as if every candidate
// had been tightened and sorted, and most never need tightening. The first
// top, loose or tight, whose bound is strictly below the running K-th score
// ends the search — nothing left can enter the list. An equal bound is still
// scored: at equal scores the smaller id wins. Skipping is the only thing the
// bounds do, so ids, scores and both component relevances are exactly those
// of scoring every candidate.
//
// With workers > 1 (and enough candidates to be worth it) candidates are
// consumed in rounds: up to a round's worth of tight tops are popped into the
// slots behind the heap, scored concurrently, then offered to the selector,
// and the stopping test runs between rounds — a schedule-independent
// superset of the serial visit. Tightening polls for cancellation every
// cancelCheckStride bounds; workers poll between candidates and, through
// signature.KJCancelCompiled, between EMD evaluations; the first cancellation
// or injected fault fails the query. Everything but the goroutines and the
// returned answer lives in pooled scratch.
func (j *refineJob) refine(topK, workers int) ([]Result, int, error) {
	v, qs := j.v, j.qs
	j.qc = j.q.compiled()
	heap := qs.bounds[:0]
	for i, idx := range qs.merged {
		if i%cancelCheckStride == 0 && j.cancelled != nil && j.cancelled() {
			return nil, 0, j.cause()
		}
		c := boundCand{idx: idx, tight: true}
		if e := v.env.At(idx); e.N >= 0 { // a live slot
			c.tight = false
			c.soc = qs.sparseSJ(v, idx)
			c.bound = v.fuse(signature.KJEnvelopeBound(j.qc, e, v.opts.MatchThreshold, &qs.kj), c.soc)
		}
		heap = append(heap, c)
	}
	qs.bounds = heap
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}

	round := 1
	if workers > 1 && len(heap) >= minParallelRefine {
		round = workers * refineRoundPerWorker
	}
	sel := qs.resultSelector(topK)
	refined, tightened := 0, 0
	for {
		n := 0
		for n < round && len(heap) > 0 {
			top := &heap[0]
			if sel.Len() >= topK && top.bound < sel.Worst().Score {
				break
			}
			if !top.tight {
				if tightened%cancelCheckStride == 0 && j.cancelled != nil && j.cancelled() {
					return nil, refined, j.cause()
				}
				tightened++
				ub := signature.KJUpperBound(j.qc, v.recs.At(top.idx).Compiled, v.opts.MatchThreshold, &qs.kj)
				top.bound, top.tight = v.fuse(ub, top.soc), true
				siftDown(heap, 0)
				continue
			}
			last := len(heap) - 1
			heap[0], heap[last] = heap[last], heap[0]
			heap = heap[:last]
			siftDown(heap, 0)
			n++
		}
		if n == 0 {
			return sel.Sorted(), refined, nil
		}
		cands := qs.bounds[len(heap) : len(heap)+n]
		results := qs.resultSlots(n)
		if err := j.scoreRound(cands, results, workers); err != nil {
			return nil, refined, err
		}
		for _, r := range results {
			sel.Offer(r)
		}
		refined += n
	}
}

// scoreRound scores one round of candidates into their result slots: a
// round of one (every serial round) on the calling goroutine, a wider one
// across the worker pool. Workers claim from a shared atomic cursor (κJ cost
// varies with series length) and each draws a warm signature.KJScratch from
// the view's pool, strictly private while held.
func (j *refineJob) scoreRound(cands []boundCand, results []Result, workers int) error {
	if len(cands) == 1 {
		r, err := j.score(cands[0], &j.qs.kj)
		results[0] = r
		return err
	}
	var failure atomic.Pointer[error]
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(cands)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := j.v.kjScratch.Get().(*signature.KJScratch)
			defer j.v.kjScratch.Put(scratch)
			for failure.Load() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				r, err := j.score(cands[i], scratch)
				if err != nil {
					e := err // keep the per-iteration err off the heap
					failure.CompareAndSwap(nil, &e)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if p := failure.Load(); p != nil {
		return *p
	}
	return nil
}

// score computes one candidate's fused relevance: κJ through the compiled
// kernel (the cached series resolved by dense index, no string re-hash),
// fused with the s̃J the bound pass already computed.
func (j *refineJob) score(c boundCand, scratch *signature.KJScratch) (Result, error) {
	v := j.v
	if err := faults.Inject(faults.RefineScore); err != nil {
		return Result{}, err
	}
	if j.cancelled != nil && j.cancelled() {
		return Result{}, j.cause()
	}
	var content float64
	if rec := v.recs.At(c.idx); rec != nil {
		var complete bool
		content, complete = signature.KJCancelCompiled(j.qc, rec.Compiled, v.opts.MatchThreshold, j.cancelled, scratch)
		if !complete {
			return Result{}, j.cause()
		}
	}
	return Result{
		VideoID: v.ids.At(c.idx),
		Score:   v.fuse(content, c.soc),
		Content: content,
		Social:  c.soc,
	}, nil
}

// RecommendID recommends for a stored video, excluding the video itself.
func (v *View) RecommendID(id string, topK int) []Result {
	res, _, _ := v.RecommendIDCtx(context.Background(), id, topK)
	return res
}

// RecommendIDCtx is RecommendID with the deadline-aware semantics of
// RecommendCtx.
func (v *View) RecommendIDCtx(ctx context.Context, id string, topK int) ([]Result, RecommendInfo, error) {
	q, ok := v.QueryFor(id)
	if !ok {
		return nil, RecommendInfo{}, nil
	}
	return v.RecommendCtx(ctx, q, topK, id)
}

// Recommend runs the KNN search against the recommender's current state.
// Unlike View.Recommend it is not safe for use concurrent with mutations;
// freeze a View for lock-free serving.
func (r *Recommender) Recommend(q Query, topK int, exclude ...string) []Result {
	return r.state.Recommend(q, topK, exclude...)
}

// RecommendID recommends for a stored video, excluding the video itself.
func (r *Recommender) RecommendID(id string, topK int) []Result {
	return r.state.RecommendID(id, topK)
}
