package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"videorec/internal/faults"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// withOptions returns a view that differs from v only in the query-time
// options tweak sets, such as CandidateLimit (the fixture is expensive to
// build; the scratch pools are shared, which a sequential test may do).
func withOptions(v *View, tweak func(*Options)) *View {
	vv := *v
	tweak(&vv.opts)
	return &vv
}

// eagerRefine is refine without the bound ladder: KJUpperBound for every
// gathered candidate, one sort by (bound desc, idx asc), then the same
// stopping test. The ladder claims to visit candidates in exactly this
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
	sel := qs.resultSelector(topK)
	refined := 0
	for _, c := range bounds {
		if sel.Len() >= topK && c.bound < sel.Worst().Score {
			break
		}
		r, err := j.score(c)
		if err != nil {
			t.Fatal(err)
		}
		sel.Offer(r)
		refined++
	}
	return sel.Sorted(), refined
}

// Bounded refinement must be indistinguishable from refining everything:
// across the mode variants and list lengths from 1 to past the candidate
// count, ids, scores and both component relevances equal the
// refine-everything reference (referenceRecommend: raw κJ for every
// reference candidate, full sort). It must actually stop early
// where there is something to skip, and the lazy bound ladder must refine
// exactly as many candidates as tightening every bound up front does.
func TestBoundedRefineMatchesExhaustive(t *testing.T) {
	for _, tc := range modeVariants {
		t.Run(tc.name, func(t *testing.T) {
			v := buildGolden(t, tc.mutate)
			for _, id := range goldenQueries(t, v, 6) {
				q, _ := v.QueryFor(id)
				cands := len(referenceCandidates(v, q, id))
				for _, topK := range []int{1, 10, cands, cands + 5} {
					got, info, err := v.RecommendCtx(context.Background(), q, topK, id)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceRecommend(v, q, topK, id); !resultsEqual(got, want) {
						t.Fatalf("query %s, topK %d: bounded refine diverged\nbounded:    %+v\nexhaustive: %+v", id, topK, got, want)
					}
					if info.Candidates != cands || info.Refined > cands || info.Refined < len(got) {
						t.Fatalf("query %s, topK %d: info %+v with %d candidates and %d results", id, topK, info, cands, len(got))
					}
					if topK >= cands && info.Refined != cands {
						t.Fatalf("query %s, topK %d: refined %d of %d although every candidate is returned", id, topK, info.Refined, cands)
					}
					if topK == 1 && info.Refined == cands && cands > 10 {
						t.Errorf("query %s: top-1 refined all %d candidates — the bound prunes nothing", id, cands)
					}
					if eager, refined := eagerRefine(t, v, q, topK, id); refined != info.Refined || !resultsEqual(got, eager) {
						t.Fatalf("query %s, topK %d: refined %d, eager tightening refines %d (answers equal: %v)",
							id, topK, info.Refined, refined, resultsEqual(got, eager))
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
		{"fused", nil},
		{"social-only", func(o *Options) { o.Omega = 1 }},
		{"content-only", func(o *Options) { o.Omega = 0 }},
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

// coarseReference ranks every reference candidate by s̃J alone under
// (score desc, id asc): the answer a refinement cut before its first κJ must
// order its ids by, and the baseline an interrupted one must beat.
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

// deadlineCtx is a context a test expires by hand: live until expire, then
// done with Err = DeadlineExceeded, as if its deadline passed at that
// instant.
type deadlineCtx struct {
	context.Context
	done chan struct{}
}

func newDeadlineCtx() *deadlineCtx {
	return &deadlineCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	if ctxDone(c.done) {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *deadlineCtx) expire() { close(c.done) }

// byID indexes an exact answer that holds every candidate.
func byID(all []Result) map[string]Result {
	m := make(map[string]Result, len(all))
	for _, r := range all {
		m[r.VideoID] = r
	}
	return m
}

// requireAnytime checks an answer that a deadline cut: as long as the exact
// one, sorted under RanksBelow, no id twice, and every entry either the
// candidate's exact result or its unrefined one, fuse(0, s̃J) with
// Content = 0. It returns how many entries are the unrefined result, which
// for a κJ of 0 is also the exact one.
func requireAnytime(t *testing.T, label string, v *View, got []Result, exact map[string]Result, topK int) int {
	t.Helper()
	if want := min(topK, len(exact)); len(got) != want {
		t.Fatalf("%s: %d results, want %d", label, len(got), want)
	}
	seen := map[string]bool{}
	unrefined := 0
	for i, r := range got {
		if i > 0 && !RanksBelow(r, got[i-1]) {
			t.Fatalf("%s: rank %d %+v is not below %+v", label, i, r, got[i-1])
		}
		if seen[r.VideoID] {
			t.Fatalf("%s: %s answered twice", label, r.VideoID)
		}
		seen[r.VideoID] = true
		e, ok := exact[r.VideoID]
		fill := Result{VideoID: e.VideoID, Score: v.fuse(0, e.Social), Social: e.Social}
		switch {
		case !ok:
			t.Fatalf("%s: %s is not a candidate", label, r.VideoID)
		case r == fill:
			unrefined++
		case r == e:
		default:
			t.Fatalf("%s: %+v is neither exact %+v nor unrefined %+v", label, r, e, fill)
		}
	}
	return unrefined
}

// recallAt returns the share of want's ids that got holds.
func recallAt(got, want []Result) float64 {
	in := map[string]bool{}
	for _, r := range got {
		in[r.VideoID] = true
	}
	hit := 0
	for _, r := range want {
		if in[r.VideoID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// A refinement that the deadline interrupts answers from what it has. The
// deadline expires when the (n+1)-th candidate is about to be scored, so
// exactly n are refined. At n = 0 nothing is exact and the ids come in s̃J
// order — the coarse ranking; uncut, the answer is exact; at every n each
// score is exact or the candidate's lower bound fuse(0, s̃J), and the mean
// recall@10 against the exact answer is at least the coarse ranking's. The query shares a score floor, which must
// never see an unrefined score: below n = K it stays empty. -v logs the
// recall table.
func TestBoundedRefineInterruptedSweep(t *testing.T) {
	defer faults.Reset()
	const topK = 10
	v := buildGolden(t, nil)
	cuts := []int{0, 1, 2, 4, 8, 16, 32, -1} // -1: never cut
	recall := make([]float64, len(cuts))
	cutShort := make([]int, len(cuts))
	var coarseRecall float64
	queries := goldenQueries(t, v, 8)
	for _, id := range queries {
		q, _ := v.QueryFor(id)
		all := referenceRecommend(v, q, len(referenceCandidates(v, q, id)), id)
		exact, want := byID(all), all[:min(topK, len(all))]
		coarse := coarseReference(v, q, topK, id)
		coarseRecall += recallAt(coarse, want)
		for ci, n := range cuts {
			label := fmt.Sprintf("query %s, cut after %d", id, n)
			ctx, scored := newDeadlineCtx(), 0
			faults.Arm(faults.RefineScore, func() error {
				if scored == n {
					ctx.expire()
				}
				scored++
				return nil
			})
			floor := NewScoreFloor(topK)
			got, info, err := v.RecommendCtx(ctx, q.WithFloor(floor), topK, id)
			faults.Disarm(faults.RefineScore)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			recall[ci] += recallAt(got, want)
			if n < 0 || scored <= n { // refinement finished first
				if info.Degraded || !resultsEqual(got, want) {
					t.Fatalf("%s: uncut answer degraded=%v\ngot:  %+v\nwant: %+v", label, info.Degraded, got, want)
				}
				continue
			}
			cutShort[ci]++
			if !info.Degraded || info.Refined != n || info.Candidates != len(all) {
				t.Fatalf("%s: info %+v, want degraded with %d refined of %d", label, info, n, len(all))
			}
			unrefined := requireAnytime(t, label, v, got, exact, topK)
			if n == 0 {
				if unrefined != len(got) {
					t.Fatalf("%s: %d of %d results exact before any κJ", label, len(got)-unrefined, len(got))
				}
				for i := range got {
					if got[i].VideoID != coarse[i].VideoID {
						t.Fatalf("%s: rank %d is %s, the coarse ranking has %s", label, i, got[i].VideoID, coarse[i].VideoID)
					}
				}
			}
			if n < topK && !math.IsInf(floor.load(), -1) {
				t.Fatalf("%s: the floor reads %v after %d exact scores", label, floor.load(), n)
			}
		}
	}
	coarseRecall /= float64(len(queries))
	t.Logf("mean recall@%d over %d queries: coarse %.3f", topK, len(queries), coarseRecall)
	for ci, n := range cuts {
		recall[ci] /= float64(len(queries))
		t.Logf("  cut after %3d scored: %.3f (%d queries cut short)", n, recall[ci], cutShort[ci])
		if recall[ci] < coarseRecall {
			t.Errorf("cut after %d: mean recall@%d %.3f is below the coarse ranking's %.3f", n, topK, recall[ci], coarseRecall)
		}
	}
}

// A deadline can pass in any phase of refinement — the bound pass,
// tightening, or a κJ — and each answers from what it has. The refine job is
// driven directly, with a poll that reports the deadline passed from poll p
// on, for every p up to the first that the refinement outlives. A cut in the
// bound pass leaves nothing tightened or refined, and its ids in coarse
// order.
func TestBoundedRefineDeadlineInEveryPhase(t *testing.T) {
	const topK = 10
	v := buildGolden(t, nil)
	for _, id := range goldenQueries(t, v, 3) {
		q, _ := v.QueryFor(id)
		all := referenceRecommend(v, q, len(referenceCandidates(v, q, id)), id)
		exact, want := byID(all), all[:min(topK, len(all))]
		coarse := coarseReference(v, q, topK, id)
		boundPolls := (len(all) + cancelCheckStride - 1) / cancelCheckStride
		// Every poll of the bound pass and of the first tightenings and
		// scores, then every quarter further: a κJ polls between EMDs.
		next := func(p int64) int64 {
			if p < int64(boundPolls)+32 {
				return p + 1
			}
			return p + p/4
		}
		for p := int64(1); ; p = next(p) {
			var polls int64
			qs := v.getScratch()
			v.resolveExcludes(qs, []string{id})
			if err := v.gather(context.Background(), q, qs); err != nil {
				t.Fatal(err)
			}
			j := &qs.job
			*j = refineJob{v: v, q: q, qs: qs, cause: func() error { return context.DeadlineExceeded }}
			j.cancelled = func() bool { polls++; return polls >= p }
			var info RecommendInfo
			got, err := j.refine(topK, &info)
			v.putScratch(qs)
			label := fmt.Sprintf("query %s, deadline at poll %d", id, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if polls < p {
				if info.Degraded || !resultsEqual(got, want) {
					t.Fatalf("%s: uncut answer degraded=%v\ngot:  %+v\nwant: %+v", label, info.Degraded, got, want)
				}
				break
			}
			if !info.Degraded {
				t.Fatalf("%s: cut answer not degraded", label)
			}
			requireAnytime(t, label, v, got, exact, topK)
			if p <= int64(boundPolls) {
				if info.Refined != 0 || info.Tightened != 0 {
					t.Fatalf("%s: bound pass cut with info %+v", label, info)
				}
				for i := range got {
					if got[i].VideoID != coarse[i].VideoID {
						t.Fatalf("%s: rank %d is %s, the coarse ranking has %s", label, i, got[i].VideoID, coarse[i].VideoID)
					}
				}
			}
		}
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
	v := buildGolden(t, nil)
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
			res, err := j.refine(10, &RecommendInfo{})
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
	v := buildGolden(t, nil)
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
