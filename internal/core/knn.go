package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
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

// boundCand is one gathered candidate queued for refinement: its s̃J (exact,
// and known before any κJ) and the fused score it can reach at most.
type boundCand struct {
	idx   uint32
	soc   float64
	bound float64
}

// queryScratch is everything one query needs beyond its inputs: the query
// vector, the candidate and exclude bitsets, the merged candidate-index
// buffer, the LCP walker, the social top-K selector, the refinement order,
// result slots and selector, and a serial-path EMD scratch. It is pooled per
// view (View.scratch), so a steady-state query allocates only its answer.
type queryScratch struct {
	qvec    social.Vector
	cand    bitset.Set // candidate membership, keyed by dense index
	excl    bitset.Set // per-query exclusions, keyed by dense index
	exclIdx []uint32   // bits set in excl, for cheap clearing
	touched []uint32   // bits set in cand, for cheap clearing
	merged  []uint32   // gathered candidates (exclusions already applied)
	union   index.UnionScratch
	walker  index.Walker
	bounds  []boundCand // refinement order: best fused-score bound first
	results []Result
	sel     *topk.Selector[scoredCand]
	resSel  *topk.Selector[Result]
	kj      signature.KJScratch // serial refinement scratch, warm across queries
	job     refineJob
}

// selector returns the scratch's social top-K selector, creating it on
// first use and resetting it otherwise. The order is total — s̃J descending,
// video id (string, not dense index) ascending — so the kept set is exactly
// the full sort's prefix, bit-identical to the pre-dense string-sorted path.
func (qs *queryScratch) selector(v *View, k int) *topk.Selector[scoredCand] {
	if qs.sel == nil {
		// Capture the view, not a copy of its id table: on the write-side
		// view the table can grow between queries, and the pooled selector
		// must always read the current one.
		qs.sel = topk.New(k, func(a, b scoredCand) bool {
			if a.s != b.s {
				return a.s < b.s
			}
			return v.ids.At(a.i) > v.ids.At(b.i)
		})
		return qs.sel
	}
	qs.sel.Reset(k)
	return qs.sel
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

// putScratch clears the scratch by undoing exactly the bits it set —
// O(candidates), not O(collection) — and returns it to the pool.
func (v *View) putScratch(qs *queryScratch) {
	for _, i := range qs.touched {
		qs.cand.Remove(i)
	}
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
//     candidates by s̃J (SAR modes), or schedule a full exact-sJ scan
//     (ModeExact — the unoptimized CSF the paper starts from);
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
//     it already has (s̃J over SAR vectors; exact sJ in ModeExact) instead of
//     failing with DeadlineExceeded, and the result is flagged Degraded. A
//     negative DegradeMargin disables the fallback.
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

	useContent, useSocial, err := v.gather(ctx, q, qs)
	if err != nil {
		return nil, info, err
	}
	info.Candidates = len(qs.merged)

	// Degrade up front when the deadline cannot plausibly fit a full EMD
	// refinement pass: answer with the coarse social ranking immediately.
	canDegrade := useContent && useSocial && v.opts.DegradeMargin > 0
	if canDegrade {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < v.opts.DegradeMargin {
			return v.finishCoarse(ctx, q, qs, topK, &info)
		}
	}

	done := ctx.Done()
	job := &qs.job
	*job = refineJob{v: v, q: q, qs: qs, useContent: useContent, useSocial: useSocial}
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
			return v.finishCoarse(context.WithoutCancel(ctx), q, qs, topK, &info)
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
	if _, _, err := v.gather(ctx, q, qs); err != nil {
		return 0, err
	}
	return len(qs.merged), nil
}

// gather fills qs.merged with the candidate set of steps 1–2, polling the
// context between probe steps. Candidates are dense video indices; the
// dense-index order is the deterministic order — no per-query id sort.
func (v *View) gather(ctx context.Context, q Query, qs *queryScratch) (useContent, useSocial bool, err error) {
	useSocial = !v.opts.ContentWeightOnly
	useContent = !v.opts.SocialOnly
	if useSocial && v.opts.Mode != ModeExact {
		v.mustBuild()
		qs.qvec = social.VectorizeInto(qs.qvec, q.Desc, v.look, v.part.Dim)
	}

	done := ctx.Done()
	switch {
	case v.opts.FullScan || (v.opts.Mode == ModeExact && useSocial):
		// Unoptimized CSF (or an effectiveness run that wants exhaustive
		// ranking): every stored video is refined.
		for i, rec := range v.recs.All() {
			if i%cancelCheckStride == 0 && ctxDone(done) {
				return false, false, ctx.Err()
			}
			if rec == nil || qs.excl.Has(uint32(i)) {
				continue
			}
			qs.merged = append(qs.merged, uint32(i))
		}
	default:
		qs.cand.Grow(v.ids.Len())
		if useSocial {
			// Step 1: social candidates ranked by s̃J; keep the budgeted top.
			// The inverted-file union is a k-way merge of sorted posting
			// lists, and only CandidateLimit winners survive, so a bounded
			// heap selects them in O(n log limit). The (s desc, id asc)
			// order is total, so the kept set is exactly the full sort's
			// prefix.
			socCands := v.inv.Union(qs.qvec, &qs.union)
			sel := qs.selector(v, v.opts.CandidateLimit)
			for i, idx := range socCands {
				if i%cancelCheckStride == 0 && ctxDone(done) {
					return false, false, ctx.Err()
				}
				sel.Offer(scoredCand{i: idx, s: social.ApproxJaccard(qs.qvec, v.recs.At(idx).Vec)})
			}
			for _, sc := range sel.Items() {
				qs.addCandidate(sc.i)
			}
		}
		if useContent {
			// Step 2: content candidates in LCP order. The expansion budget
			// counts candidates *content itself adds*: a full social step no
			// longer starves content expansion by pre-filling the shared cap.
			if q.contentKeys != nil && q.keyFP == v.lsb.KeyFingerprint() {
				qs.walker.ResetWithKeys(v.lsb, q.Series, q.contentKeys)
			} else {
				qs.walker.Reset(v.lsb, q.Series)
			}
			added := 0
			for pops := 0; pops < v.opts.ContentProbe; pops++ {
				if pops%cancelCheckStride == 0 && ctxDone(done) {
					return false, false, ctx.Err()
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
		}
	}
	return useContent, useSocial, nil
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
// entirely. s̃J over SAR vectors is a k-dimensional min/max ratio, orders of
// magnitude cheaper than κJ, so this path answers within any realistic
// margin. ctx is still honored (a hard cancel beats degradation).
func (v *View) finishCoarse(ctx context.Context, q Query, qs *queryScratch, topK int, info *RecommendInfo) ([]Result, RecommendInfo, error) {
	done := ctx.Done()
	sel := qs.resultSelector(topK)
	for i, idx := range qs.merged {
		if i%cancelCheckStride == 0 && ctxDone(done) {
			return nil, *info, ctx.Err()
		}
		soc := v.socialRelevanceRec(q, qs.qvec, v.recs.At(idx))
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

// worseResult is the total result order of every top-K selection: a ranks
// strictly below b under (score desc, id asc).
func worseResult(a, b Result) bool {
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
		qs.resSel = topk.New(0, worseResult)
	}
	qs.resSel.Reset(topK)
	return qs.resSel
}

// refineJob is one query's step-3 refinement: the inputs every candidate's
// score needs, and how the query cancels. It lives in the pooled
// queryScratch so that refinement workers can share it without a per-query
// allocation.
type refineJob struct {
	v                     *View
	q                     Query
	qs                    *queryScratch
	useContent, useSocial bool
	cancelled             func() bool  // nil when nothing can cancel the query
	cause                 func() error // the error a cancellation surfaces as

	qc *signature.CompiledSeries
}

// refine returns the topK best gathered candidates under the fused relevance
// and how many candidates it had to score to know them.
//
// s̃J is exact before any EMD runs and signature.KJUpperBound bounds κJ from
// the compiled sketches alone, so fuse(κJ_ub, s̃J) bounds every candidate's
// score (fuse is monotone in κJ, rounding included). Candidates are visited
// best bound first and scored with the unchanged kernel; the first candidate
// whose bound is strictly below the running K-th score ends the search — it
// and everything after it cannot enter the list. An equal bound is still
// scored: at equal scores the smaller id wins. Skipping is the only thing the
// bound does, so ids, scores and both component relevances are exactly those
// of scoring every candidate.
//
// With workers > 1 (and enough candidates to be worth it) the ordered list is
// consumed in rounds: the candidates of a round are scored concurrently into
// slots, then offered to the selector in order, and the stopping test runs
// between rounds — a schedule-independent superset of the serial visit.
// Workers poll for cancellation between candidates and, through
// signature.KJCancelCompiled, between EMD evaluations; the first cancellation
// or injected fault fails the query. Everything but the goroutines and the
// returned answer lives in pooled scratch.
func (j *refineJob) refine(topK, workers int) ([]Result, int, error) {
	v, qs := j.v, j.qs
	if j.useContent {
		j.qc = j.q.compiled()
	}
	bounds := qs.bounds[:0]
	for i, idx := range qs.merged {
		if i%cancelCheckStride == 0 && j.cancelled != nil && j.cancelled() {
			return nil, 0, j.cause()
		}
		c := boundCand{idx: idx}
		if rec := v.recs.At(idx); rec != nil {
			var ub float64
			if j.useContent {
				ub = signature.KJUpperBound(j.qc, rec.Compiled, v.opts.MatchThreshold, &qs.kj)
			}
			if j.useSocial {
				c.soc = v.socialRelevanceRec(j.q, qs.qvec, rec)
			}
			c.bound = v.fuse(ub, c.soc)
		}
		bounds = append(bounds, c)
	}
	qs.bounds = bounds
	slices.SortFunc(bounds, func(a, b boundCand) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	round := 1
	if workers > 1 && len(bounds) >= minParallelRefine {
		round = workers * refineRoundPerWorker
	}
	sel := qs.resultSelector(topK)
	refined := 0
	for len(bounds) > 0 {
		n := 0
		for n < round && n < len(bounds) && (sel.Len() < topK || bounds[n].bound >= sel.Worst().Score) {
			n++
		}
		if n == 0 {
			break
		}
		results := qs.resultSlots(n)
		if err := j.scoreRound(bounds[:n], results, workers); err != nil {
			return nil, refined, err
		}
		for _, r := range results {
			sel.Offer(r)
		}
		refined += n
		bounds = bounds[n:]
	}
	return sel.Sorted(), refined, nil
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
	if rec := v.recs.At(c.idx); j.useContent && rec != nil {
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
