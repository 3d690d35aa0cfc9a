package core

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"videorec/internal/faults"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// withOptions returns a view that differs from v only in the query-time
// options tweak sets, such as RefineWorkers or CandidateLimit (the fixture
// is expensive to build; the scratch pools are shared, which a sequential
// test may do).
func withOptions(v *View, tweak func(*Options)) *View {
	vv := *v
	tweak(&vv.opts)
	return &vv
}

// eagerRefine is refine without the bound ladder: KJUpperBound for every
// gathered candidate, one sort by (bound desc, idx asc), then the same rounds
// and stopping test. The ladder claims to visit candidates in exactly this
// order, so results and the Refined count must both match it.
func eagerRefine(t *testing.T, v *View, q Query, topK int, exclude ...string) ([]Result, int) {
	t.Helper()
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)
	if err := v.gather(context.Background(), q, qs); err != nil {
		t.Fatal(err)
	}
	j := &refineJob{v: v, q: q, qs: qs, qc: q.compiled()}
	var bounds []boundCand
	for _, idx := range qs.merged {
		c := boundCand{idx: idx}
		if rec := v.recs.At(idx); rec != nil {
			c.soc = qs.sparseSJ(v, idx)
			c.bound = v.fuse(signature.KJUpperBound(j.qc, rec.Compiled.Sketches, v.opts.MatchThreshold, nil), c.soc)
		}
		bounds = append(bounds, c)
	}
	slices.SortFunc(bounds, func(a, b boundCand) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	workers, round := max(v.opts.RefineWorkers, 1), 1
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
		results := make([]Result, n)
		if err := j.scoreRound(bounds[:n], results, workers); err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			sel.Offer(r)
		}
		refined += n
		bounds = bounds[n:]
	}
	return sel.Sorted(), refined
}

// Bounded refinement must be indistinguishable from refining everything:
// across the seven mode variants, list lengths from 1 to past the candidate
// count, and serial and parallel rounds, ids, scores and both component
// relevances equal the refine-everything reference (referenceRecommend: raw
// κJ for every reference candidate, full sort). It must actually stop early
// where there is something to skip, and the lazy bound ladder must refine
// exactly as many candidates as tightening every bound up front does.
func TestBoundedRefineMatchesExhaustive(t *testing.T) {
	for _, tc := range modeVariants {
		t.Run(tc.name, func(t *testing.T) {
			base := buildGolden(t, tc.mutate)
			for _, id := range goldenQueries(t, base, 6) {
				q, _ := base.QueryFor(id)
				cands := len(referenceCandidates(base, q, id))
				for _, workers := range []int{1, 4} {
					v := withOptions(base, func(o *Options) { o.RefineWorkers = workers })
					for _, topK := range []int{1, 10, cands, cands + 5} {
						got, info, err := v.RecommendCtx(context.Background(), q, topK, id)
						if err != nil {
							t.Fatal(err)
						}
						if want := referenceRecommend(v, q, topK, id); !resultsEqual(got, want) {
							t.Fatalf("query %s, topK %d, %d workers: bounded refine diverged\nbounded:    %+v\nexhaustive: %+v",
								id, topK, workers, got, want)
						}
						if info.Candidates != cands || info.Refined > cands || info.Refined < len(got) {
							t.Fatalf("query %s, topK %d: info %+v with %d candidates and %d results", id, topK, info, cands, len(got))
						}
						if topK >= cands && info.Refined != cands {
							t.Fatalf("query %s, topK %d: refined %d of %d although every candidate is returned", id, topK, info.Refined, cands)
						}
						if topK == 1 && workers == 1 && info.Refined == cands && cands > 10 {
							t.Errorf("query %s: top-1 refined all %d candidates — the bound prunes nothing", id, cands)
						}
						if eager, refined := eagerRefine(t, v, q, topK, id); refined != info.Refined || !resultsEqual(got, eager) {
							t.Fatalf("query %s, topK %d, %d workers: refined %d, eager tightening refines %d (answers equal: %v)",
								id, topK, workers, info.Refined, refined, resultsEqual(got, eager))
						}
					}
				}
			}
		})
	}
}

// At equal scores the smaller id wins, so a candidate whose bound only ties
// the running K-th score must still be refined. Two clips that are copies of
// one stored clip score identically for every query; the copy with the
// smaller id is ingested last (larger dense index, visited later), and K is
// chosen so the pair straddles the cut. Social-only makes bound == score
// exactly, the case a `<=` stopping test would get wrong. Querying the
// twins' source makes each twin's envelope bound equal its KJUpperBound, so
// once the first twin is tightened it ties the other, still loose, on bound.
func TestBoundedRefineTieAtCutoff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"fused", func(o *Options) { o.RefineWorkers = 1 }},
		{"social-only", func(o *Options) { o.Omega = 1; o.RefineWorkers = 1 }},
		{"content-only", func(o *Options) { o.Omega = 0; o.RefineWorkers = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := buildGolden(t, tc.mutate)
			opts := src.Options()
			ids := src.SortedIDs()
			twin, _ := src.Record(ids[1])
			r := NewRecommender(opts)
			for _, id := range ids {
				rec, _ := src.Record(id)
				r.IngestSeries(id, rec.Compiled.Series(), rec.Desc)
			}
			r.IngestSeries("twin-b", twin.Compiled.Series(), twin.Desc)
			r.IngestSeries("twin-a", twin.Compiled.Series(), twin.Desc)
			r.BuildSocial()
			v := r.Freeze()

			q, _ := v.QueryFor(ids[1])
			tw, _ := v.Record("twin-a")
			env := signature.KJEnvelopeBound(q.compiled(), tw.Compiled.Envelope(), opts.MatchThreshold, nil)
			if ub := signature.KJUpperBound(q.compiled(), tw.Compiled.Sketches, opts.MatchThreshold, nil); env != ub {
				t.Fatalf("twin of the query: envelope bound %v, upper bound %v; the loose/tight tie does not arise", env, ub)
			}
			checked := 0
			for _, id := range ids[1:10] {
				q, _ := v.QueryFor(id)
				all := referenceRecommend(v, q, len(ids)+2, id)
				for rank, res := range all {
					if res.VideoID != "twin-a" {
						continue
					}
					if rank+1 >= len(all) || all[rank+1].VideoID != "twin-b" || all[rank+1].Score != res.Score {
						t.Fatalf("query %s: twins not adjacent at equal score: %+v", id, all[rank:])
					}
					got := v.Recommend(q, rank+1, id)
					if !resultsEqual(got, all[:rank+1]) {
						t.Fatalf("query %s, topK %d: tie at the cutoff resolved wrongly\ngot:  %+v\nwant: %+v", id, rank+1, got[max(0, rank-1):], all[max(0, rank-1):rank+1])
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("the twins were never candidates; the fixture does not exercise the tie")
			}
		})
	}
}

// coarseReference is the degraded answer written out longhand: every
// reference candidate ranked by s̃J alone under (score desc, id asc).
func coarseReference(v *View, q Query, topK int, exclude ...string) []Result {
	qvec := social.Vectorize(q.Desc, v.part.Lookup, v.part.Dim)
	var out []Result
	for id := range referenceCandidates(v, q, exclude...) {
		soc := social.ApproxJaccard(qvec, v.record(id).Vec)
		out = append(out, Result{VideoID: id, Score: soc, Social: soc})
	}
	sort.Slice(out, func(a, b int) bool { return RanksBelow(out[b], out[a]) })
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// A deadline that expires while the bounded search is running must produce
// the degraded answer the exhaustive refine produced: all gathered
// candidates ranked by s̃J, none dropped because refinement had skipped or
// not yet reached them.
func TestBoundedRefineDegradesMidRefine(t *testing.T) {
	defer faults.Reset()
	v := withOptions(buildGolden(t, nil), func(o *Options) { o.RefineWorkers = 1 })
	id := goldenQueries(t, v, 1)[0]
	q, _ := v.QueryFor(id)
	want := coarseReference(v, q, 10, id)
	cands := len(referenceCandidates(v, q, id))

	// Past the 20ms margin, so refinement starts; expired a few slowed
	// candidate scores later.
	faults.Arm(faults.RefineScore, faults.Latency(10*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	got, info, err := v.RecommendCtx(ctx, q, 10, id)
	if err != nil {
		t.Fatalf("mid-refine deadline errored: %v", err)
	}
	if !info.Degraded || info.Refined != 0 || info.Candidates != cands {
		t.Fatalf("info = %+v, want degraded with %d candidates and nothing refined", info, cands)
	}
	if !resultsEqual(got, want) {
		t.Fatalf("degraded answer differs from the coarse reference\ngot:  %+v\nwant: %+v", got, want)
	}
}

// A cancellation seen while bounds are being tightened fails the query with
// the context's error and no partial answer. The refine job is driven
// directly, with a poll that reports the context done from the first poll
// after the bound pass on: the heap's top is loose then, so that poll is the
// tightening loop's, and no candidate may have been scored. Later cut-offs
// land between tightenings and scores.
func TestBoundedRefineCancelledWhileTightening(t *testing.T) {
	defer faults.Reset()
	scored := 0
	faults.Arm(faults.RefineScore, func() error { scored++; return nil })
	v := withOptions(buildGolden(t, nil), func(o *Options) { o.RefineWorkers = 1 })
	for _, id := range goldenQueries(t, v, 3) {
		q, _ := v.QueryFor(id)
		for extra := 0; extra < 8; extra++ {
			scored = 0
			ctx, cancel := context.WithCancel(context.Background())
			qs := v.getScratch()
			v.resolveExcludes(qs, []string{id})
			if err := v.gather(ctx, q, qs); err != nil {
				t.Fatal(err)
			}
			cutoff := (len(qs.merged)+cancelCheckStride-1)/cancelCheckStride + extra
			polls := 0
			j := &qs.job
			*j = refineJob{v: v, q: q, qs: qs, cause: ctx.Err}
			j.cancelled = func() bool {
				if polls++; polls > cutoff {
					cancel()
				}
				return ctxDone(ctx.Done())
			}
			res, err := j.refine(10, 1, &RecommendInfo{})
			v.putScratch(qs)
			cancel()
			if err != context.Canceled || res != nil {
				t.Fatalf("query %s, cancelled at poll %d: got %d results, err %v; want none and context.Canceled", id, cutoff+1, len(res), err)
			}
			if extra == 0 && scored != 0 {
				t.Fatalf("query %s: the first poll after the bound pass came after %d scores, not from tightening", id, scored)
			}
		}
	}
}

// The warm serial query — bound pass, ordering, selection, refinement —
// allocates its answer and nothing else: the bound order buffer, result
// slots, selector and refine job all live in the pooled queryScratch.
func TestBoundedRefineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	v := withOptions(buildGolden(t, nil), func(o *Options) { o.RefineWorkers = 1 })
	ids := v.SortedIDs()
	ctx := context.Background()
	for _, id := range ids {
		q, _ := v.QueryFor(id)
		if _, _, err := v.RecommendCtx(ctx, q, 10, id); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := v.QueryFor(ids[0])
	exclude := []string{ids[0]}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := v.RecommendCtx(ctx, q, 10, exclude...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm RecommendCtx allocates %.1f/op, want 1 (the returned list)", allocs)
	}
}
