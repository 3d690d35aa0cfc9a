package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"videorec/internal/faults"
	"videorec/internal/social"
)

// withWorkers returns a view that differs from v only in RefineWorkers (the
// fixture is expensive to build; the scratch pools are shared, which a
// sequential test may do).
func withWorkers(v *View, workers int) *View {
	vv := *v
	vv.opts.RefineWorkers = workers
	return &vv
}

// Bounded refinement must be indistinguishable from refining everything:
// across the seven mode variants, list lengths from 1 to past the candidate
// count, and serial and parallel rounds, ids, scores and both component
// relevances equal the refine-everything reference (referenceRecommend: raw
// κJ for every reference candidate, full sort). And it must actually stop
// early where there is something to skip.
func TestBoundedRefineMatchesExhaustive(t *testing.T) {
	for _, tc := range batchVariants {
		t.Run(tc.name, func(t *testing.T) {
			base := buildGolden(t, tc.mutate)
			for _, id := range goldenQueries(t, base, 6) {
				q, _ := base.QueryFor(id)
				cands := len(referenceCandidates(base, q, id))
				for _, workers := range []int{1, 4} {
					v := withWorkers(base, workers)
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
// exactly, the case a `<=` stopping test would get wrong.
func TestBoundedRefineTieAtCutoff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"fused", func(o *Options) { o.RefineWorkers = 1 }},
		{"social-only", func(o *Options) { o.SocialOnly = true; o.RefineWorkers = 1 }},
		{"content-only", func(o *Options) { o.ContentWeightOnly = true; o.RefineWorkers = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := buildGolden(t, tc.mutate)
			opts := src.Options()
			ids := src.SortedIDs()
			twin, _ := src.Record(ids[1])
			r := NewRecommender(opts)
			for _, id := range ids {
				rec, _ := src.Record(id)
				r.IngestSeries(id, rec.Series, rec.Desc)
			}
			r.IngestSeries("twin-b", twin.Series, twin.Desc)
			r.IngestSeries("twin-a", twin.Series, twin.Desc)
			r.BuildSocial()
			v := r.Freeze()

			checked := 0
			for _, id := range ids[2:10] {
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
	qvec := social.Vectorize(q.Desc, v.lookupFunc(), v.part.Dim)
	var out []Result
	for id := range referenceCandidates(v, q, exclude...) {
		soc := social.ApproxJaccard(qvec, v.record(id).Vec)
		out = append(out, Result{VideoID: id, Score: soc, Social: soc})
	}
	sort.Slice(out, func(a, b int) bool { return worseResult(out[b], out[a]) })
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// A deadline that expires while the bounded search is running must produce
// the degraded answer the exhaustive refine produced: all gathered
// candidates ranked by s̃J, none dropped because refinement had skipped or
// not yet reached them — serial and batched alike.
func TestBoundedRefineDegradesMidRefine(t *testing.T) {
	defer faults.Reset()
	v := withWorkers(buildGolden(t, nil), 1)
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

	bctx, bcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer bcancel()
	out := v.RecommendBatch(context.Background(), []BatchItem{{Ctx: bctx, Query: q, TopK: 10, Exclude: []string{id}}})[0]
	if out.Err != nil || !out.Info.Degraded || out.Info.Refined != 0 {
		t.Fatalf("batched item: err %v, info %+v", out.Err, out.Info)
	}
	if !resultsEqual(out.Results, want) {
		t.Fatalf("batched degraded answer differs from the coarse reference\ngot:  %+v\nwant: %+v", out.Results, want)
	}
}

// The warm serial query — bound pass, ordering, selection, refinement —
// allocates its answer and nothing else: the bound order buffer, result
// slots, selector and refine job all live in the pooled queryScratch.
func TestBoundedRefineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	v := withWorkers(buildGolden(t, nil), 1)
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
