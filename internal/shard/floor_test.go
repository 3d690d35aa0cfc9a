package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/faults"
)

// The shared score floor's suite: a fan-out whose shards prune against one
// top-K floor must answer exactly what its shards answer without one, refine
// no more than they do, stay exact when a shard fails after offering, and
// cost no allocation.

// floorlessMerge answers q the way a fan-out without a score floor would:
// every current shard view runs the query on its own, and MergeTopK merges
// the local top-Ks. It also returns the shards' summed Refined count.
func floorlessMerge(t *testing.T, r *Router, q core.Query, topK int, exclude string) ([]core.Result, int) {
	t.Helper()
	refined := 0
	var lists [][]core.Result
	for i, e := range r.set().engines {
		v, _ := e.CurrentView()
		res, info, err := v.RecommendCtx(context.Background(), q, topK, exclude)
		if err != nil {
			t.Fatalf("shard %d without a floor: %v", i, err)
		}
		refined += info.Refined
		lists = append(lists, res)
	}
	return MergeTopK(topK, func(yield func([]core.Result)) {
		for _, l := range lists {
			yield(l)
		}
	}), refined
}

// requireBitIdentical compares a router answer with a merge of core results,
// every score and relevance by its bits.
func requireBitIdentical(t *testing.T, label string, got []videorec.Recommendation, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i, w := range want {
		g := got[i]
		if g.VideoID != w.VideoID ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Content) != math.Float64bits(w.Content) ||
			math.Float64bits(g.Social) != math.Float64bits(w.Social) {
			t.Fatalf("%s: rank %d is %+v, want %+v", label, i, g, w)
		}
	}
}

// TestSharedFloorMatchesFloorlessMerge is the exactness property: for every
// fixture query, stored and ad hoc, every k, 2 and 4 shards, GOMAXPROCS 1
// and 4, the router's answer is bit-identical to the merge of its
// shards' floorless answers, and the shards refine no more candidates than
// they do without the floor. Over the whole run the floor must have pruned
// something, or the property says nothing.
func TestSharedFloorMatchesFloorlessMerge(t *testing.T) {
	f := loadFixture(t, 21)
	clips := map[string]videorec.Clip{}
	for _, c := range f.clips {
		clips[c.ID] = c
	}
	for _, n := range []int{2, 4} {
		r := buildRouter(t, f, n, videorec.Options{})
		views := make([]*core.View, n)
		for i, e := range r.set().engines {
			views[i], _ = e.CurrentView()
		}
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/procs=%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				routerRefined, floorlessRefined := 0, 0
				check := func(label string, got []videorec.Recommendation, meta videorec.RecommendMeta, err error, q core.Query, k int, exclude string) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, refined := floorlessMerge(t, r, q, k, exclude)
					requireBitIdentical(t, label, got, want)
					if meta.Refined > refined {
						t.Fatalf("%s: refined %d with the floor, %d without", label, meta.Refined, refined)
					}
					routerRefined += meta.Refined
					floorlessRefined += refined
				}
				for _, id := range f.queries {
					var q core.Query
					for _, v := range views {
						if qq, ok := v.QueryFor(id); ok {
							q = qq
						}
					}
					clip := clips[id]
					clip.ID = "ad-hoc-" + id
					adHoc, err := r.set().engines[0].NewAdHocQuery(clip)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{1, 3, 10, 50} {
						got, meta, err := r.RecommendCtx(context.Background(), id, k)
						check(fmt.Sprintf("stored %s k=%d", id, k), got, meta, err, q, k, id)
						got, meta, err = r.RecommendClipCtx(context.Background(), clip, k)
						check(fmt.Sprintf("ad hoc %s k=%d", id, k), got, meta, err, adHoc, k, clip.ID)
					}
				}
				if routerRefined >= floorlessRefined {
					t.Errorf("the floor pruned nothing: %d refined with it, %d without", routerRefined, floorlessRefined)
				}
			})
		}
	}
}

// TestFloorFailureRescoresSurvivors: a shard that fails mid-refinement has
// offered scores of its own videos to the floor, and the survivors may have
// pruned against them. The partial answer must still be the reference
// ranking restricted to the survivors' videos, so the survivors answer
// again without the floor. The fault fails exactly one κJ evaluation after
// several have succeeded; the failed shard is the one whose breaker counted
// a failure.
func TestFloorFailureRescoresSurvivors(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	refFull := fullRanking(t, ref, f.queries)
	r := buildRouter(t, f, 4, videorec.Options{})
	// A threshold no test reaches: breakers count failures but never open.
	r.SetResilience(Resilience{MinShardQuorum: 1, BreakerThreshold: 1 << 20})
	owned := ownedIDs(r)

	partials := 0
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, q := range f.queries {
				for _, c := range []struct {
					k      int
					failAt int64
				}{{3, 2}, {3, 5}, {3, 9}, {10, 5}, {10, 9}, {10, 14}} {
					k, failAt := c.k, c.failAt
					before := r.Health()
					var hits atomic.Int64
					faults.Arm(faults.RefineScore, func() error {
						if hits.Add(1) == failAt {
							return faults.ErrInjected
						}
						return nil
					})
					got, meta, err := r.RecommendCtx(context.Background(), q, k)
					faults.Disarm(faults.RefineScore)
					label := fmt.Sprintf("procs=%d query %s k=%d failing call %d", procs, q, k, failAt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					failed := -1
					for i, h := range r.Health() {
						if h.Failures > before[i].Failures {
							if failed >= 0 {
								t.Fatalf("%s: shards %d and %d both failed", label, failed, i)
							}
							failed = i
						}
					}
					if failed < 0 {
						if meta.ShardsFailed != 0 || hits.Load() >= failAt {
							t.Fatalf("%s: no breaker counted a failure, but %d shards failed after %d calls", label, meta.ShardsFailed, hits.Load())
						}
						requireSameList(t, label, got, partialExpect(refFull[q], nil, k))
						continue
					}
					partials++
					if !meta.Degraded || meta.ShardsFailed != 1 {
						t.Fatalf("%s: meta degraded=%v failed=%d, want a degraded 1-shard loss", label, meta.Degraded, meta.ShardsFailed)
					}
					requireSameList(t, label, got, partialExpect(refFull[q], owned[failed], k))
				}
			}
		}()
	}
	if partials == 0 {
		t.Fatal("no query lost a shard mid-refinement")
	}
}

// TestRefineCutShardMergesOnFusedScale: a shard whose router budget cuts
// its refinement short answers on the same fused scale as its siblings, so
// the merge ranks one kind of score. The fan-out's first κJ stalls past the
// ShardMargin budget, so that shard refines nothing; the query still
// succeeds, marked Degraded with no shard failed, and every merged result
// carries its clip's exact fused score or, with Content = 0, the lower bound
// ω·s̃J — never s̃J itself, which would outrank fully scored clips of the
// other shards. At every GOMAXPROCS some of the cut shard's unrefined clips
// must reach a merged top 10, or the cut is not exercised.
func TestRefineCutShardMergesOnFusedScale(t *testing.T) {
	defer faults.Reset()
	const budget, omega = 100 * time.Millisecond, 0.7
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	refFull := fullRanking(t, ref, f.queries)
	r := buildRouter(t, f, 4, videorec.Options{})
	r.SetResilience(Resilience{ShardMargin: time.Hour, BreakerThreshold: -1})

	for _, procs := range []int{1, 4} {
		unrefined := 0
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, q := range f.queries[:3] {
				exact := map[string]videorec.Recommendation{}
				for _, e := range refFull[q] {
					exact[e.VideoID] = e
				}
				var calls atomic.Int64
				faults.Arm(faults.RefineScore, func() error {
					if calls.Add(1) == 1 {
						time.Sleep(budget + 50*time.Millisecond)
					}
					return nil
				})
				ctx, cancel := context.WithTimeout(context.Background(), time.Hour+budget)
				got, meta, err := r.RecommendCtx(ctx, q, 10)
				cancel()
				faults.Disarm(faults.RefineScore)
				label := fmt.Sprintf("procs=%d query %s", procs, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !meta.Degraded || meta.ShardsFailed != 0 {
					t.Fatalf("%s: degraded=%v with %d shards failed, want a degraded answer from every shard", label, meta.Degraded, meta.ShardsFailed)
				}
				for i, g := range got {
					e := exact[g.VideoID]
					switch {
					case g == e:
					case g.Content == 0 && g.Social == e.Social && g.Score == omega*e.Social:
						unrefined++
					default:
						t.Fatalf("%s: rank %d is %+v; its exact result is %+v and its lower bound ω·s̃J = %v", label, i, g, e, omega*e.Social)
					}
				}
			}
		}()
		if unrefined == 0 {
			t.Fatalf("procs=%d: no unrefined clip reached a merged answer; the cut is not exercised", procs)
		}
	}
}

// TestRouterRecommendAllocs pins the fan-out's allocations at 17 per 4-shard
// stored-clip query on this fixture, one goroutine per shard included; the
// pooled score floor adds none.
func TestRouterRecommendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := loadFixture(t, 21)
	r := buildRouter(t, f, 4, videorec.Options{})
	q := f.queries[0]
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := r.RecommendCtx(context.Background(), q, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 17 {
		t.Errorf("4-shard RecommendCtx allocates %.0f times per query, want at most 17", allocs)
	}
}
