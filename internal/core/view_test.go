package core

import (
	"testing"

	"videorec/internal/dataset"
)

// buildSmallTweaked is buildSmall plus an options hook applied before the
// recommender is constructed.
func buildSmallTweaked(t testing.TB, mode Mode, tweak func(*Options)) (*Recommender, *dataset.Collection) {
	t.Helper()
	o := dataset.DefaultOptions()
	o.Hours = 4
	o.Users = 150
	o.Seed = 11
	c := dataset.Generate(o)
	opts := DefaultOptions()
	opts.Mode = mode
	opts.K = 12
	if tweak != nil {
		tweak(&opts)
	}
	r := NewRecommender(opts)
	for _, it := range c.Items {
		v := it.Render(o.Synth)
		r.IngestVideo(it.ID, v, descriptorOf(c, it))
	}
	r.BuildSocial()
	return r, c
}

// Parallel step-3 refinement must be byte-identical to the serial path: a
// round's scores land in pre-assigned slots and a candidate is skipped only
// when its bound proves it cannot rank, so worker scheduling cannot perturb a
// single bit of the ranking. FullScan forces the candidate set well past
// minParallelRefine.
func TestParallelRefinementMatchesSerial(t *testing.T) {
	for _, mode := range []Mode{ModeSARHash, ModeSAR, ModeExact} {
		t.Run(mode.String(), func(t *testing.T) {
			serial, c := buildSmallTweaked(t, mode, func(o *Options) {
				o.FullScan = true
				o.RefineWorkers = 1
			})
			parallel, _ := buildSmallTweaked(t, mode, func(o *Options) {
				o.FullScan = true
				o.RefineWorkers = 8
			})
			for _, q := range c.Queries {
				src := q.Sources[0]
				a := serial.RecommendID(src, 15)
				b := parallel.RecommendID(src, 15)
				if len(a) != len(b) {
					t.Fatalf("%s: %d serial vs %d parallel results", src, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s rank %d: serial %+v vs parallel %+v", src, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// A frozen view must be fully isolated from every mutation path: ingest,
// removal, and incremental updates clone the shared state before touching
// it, so the view keeps answering from the world as it was at Freeze time.
func TestFrozenViewIsolatedFromMutations(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)
	src := c.Queries[0].Sources[0]

	view := r.Freeze()
	wantLen := view.Len()
	want := view.RecommendID(src, 10)
	if len(want) == 0 {
		t.Fatal("frozen view returned no recommendations")
	}

	// Mutate through every write path. Removing a recommended video (not the
	// query source) makes any leakage into the view visible in the ranking.
	rep := r.ApplyUpdates(map[string][]string{src: {"cow-user-1", "cow-user-2", c.Users[0]}})
	if rep.VideosRevectorized == 0 {
		t.Fatal("updates were a no-op; test would prove nothing")
	}
	if !r.RemoveVideo(want[0].VideoID) {
		t.Fatalf("failed to remove %s", want[0].VideoID)
	}
	it := c.Items[0]
	r.IngestVideo("cow-fresh-clip", it.Render(c.Opts.Synth), descriptorOf(c, it))
	r.BuildSocial()

	if view.Len() != wantLen {
		t.Fatalf("frozen view Len changed: %d -> %d", wantLen, view.Len())
	}
	if _, ok := view.Record("cow-fresh-clip"); ok {
		t.Fatal("ingested clip leaked into frozen view")
	}
	got := view.RecommendID(src, 10)
	if len(got) != len(want) {
		t.Fatalf("frozen view result count changed: %d -> %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frozen view rank %d changed: %+v -> %+v", i, want[i], got[i])
		}
	}

	// The recommender itself sees the new world.
	if r.Len() != wantLen { // -1 removed, +1 ingested
		t.Fatalf("recommender Len = %d, want %d", r.Len(), wantLen)
	}
	if _, ok := r.Record(want[0].VideoID); ok {
		t.Fatal("removed clip still in recommender")
	}
	if _, ok := r.Record("cow-fresh-clip"); !ok {
		t.Fatal("ingested clip missing from recommender")
	}
}

// Freeze is O(1): a second Freeze with no intervening mutation returns the
// same view; a mutation then swaps in a clone.
func TestFreezeReturnsSameViewUntilMutation(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)
	v1 := r.Freeze()
	if v2 := r.Freeze(); v2 != v1 {
		t.Fatal("Freeze without mutation returned a different view")
	}
	r.ApplyUpdates(map[string][]string{c.Queries[0].Sources[0]: {"someone-new"}})
	if v3 := r.Freeze(); v3 == v1 {
		t.Fatal("Freeze after mutation returned the stale view")
	}
}
