package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"videorec/internal/signature"
	"videorec/internal/social"
)

// requireSeriesBits fails unless got equals want cuboid for cuboid, every
// value and weight equal under math.Float64bits.
func requireSeriesBits(t *testing.T, label string, got, want signature.Series) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d signatures, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Cuboids, want[i].Cuboids
		if len(g) != len(w) {
			t.Fatalf("%s: signature %d has %d cuboids, want %d", label, i, len(g), len(w))
		}
		for k := range w {
			if math.Float64bits(g[k].V) != math.Float64bits(w[k].V) || math.Float64bits(g[k].Mu) != math.Float64bits(w[k].Mu) {
				t.Fatalf("%s: signature %d cuboid %d = %+v, want %+v", label, i, k, g[k], w[k])
			}
		}
	}
}

// TestSnapshotSeriesExactThroughMutations: the engine keeps a clip's content
// only in compiled form, so every Snapshot rebuilds the raw series. Each
// must equal the series ingested, bit for bit, after the build, comment
// batches, a removal and its compaction, a re-ingest, and a reload. One
// clip is crafted with ties, ±0 values and zero weights, the cases the
// compiled sort and the rebuild could get wrong.
func TestSnapshotSeriesExactThroughMutations(t *testing.T) {
	src, c := buildSmall(t)
	want := map[string]signature.Series{}
	r := NewRecommender(src.Options())
	for _, id := range src.SortedIDs() {
		rec, _ := src.Record(id)
		want[id] = rec.Compiled.Series()
		r.IngestSeries(id, rec.Compiled.Series(), rec.Desc)
	}
	negZero := math.Copysign(0, -1)
	want["crafted"] = signature.Series{
		{Cuboids: []signature.Cuboid{{V: 2, Mu: 0.25}, {V: negZero, Mu: 0}, {V: 2, Mu: 0.25}, {V: 0, Mu: 0.5}, {V: -3, Mu: 0}}},
		{Cuboids: []signature.Cuboid{{V: 0, Mu: 1}, {V: negZero, Mu: 0}}},
	}
	r.IngestSeries("crafted", want["crafted"], social.NewDescriptor("", c.Users[0], c.Users[1]))

	check := func(stage string, r *Recommender) {
		t.Helper()
		snap := r.Snapshot()
		if len(snap.Records) != len(want) {
			t.Fatalf("%s: snapshot holds %d records, want %d", stage, len(snap.Records), len(want))
		}
		for _, rs := range snap.Records {
			requireSeriesBits(t, stage+"/"+rs.ID, rs.Series, want[rs.ID])
		}
	}
	r.BuildSocial()
	check("build", r)

	ids := r.SortedIDs()
	r.ApplyUpdates(map[string][]string{ids[0]: {c.Users[2], "stranger"}, ids[1]: {c.Users[3]}})
	check("ApplyUpdates", r)

	removed := ids[2]
	r.RemoveVideo(removed)
	r.RemoveVideo("crafted")
	delete(want, removed)
	delete(want, "crafted")
	r.BuildSocial() // compacts the tombstoned LSB entries
	if r.Tombstones() != 0 {
		t.Fatalf("%d tombstones after the rebuild", r.Tombstones())
	}
	check("RemoveVideo + compaction", r)

	want[removed] = want[ids[3]]
	r.IngestSeries(removed, want[removed], social.NewDescriptor("", c.Users[4]))
	want["crafted"] = signature.Series{{Cuboids: []signature.Cuboid{{V: negZero, Mu: 0.5}, {V: 0, Mu: 0.5}}}}
	r.IngestSeries("crafted", want["crafted"], social.NewDescriptor("", c.Users[5]))
	check("re-ingest", r)

	loaded, err := FromSnapshot(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	check("reload", loaded)
}

// TestRetainedBytesPerCuboid guards the engine's content footprint: ingest
// a fixed synthetic corpus, collect, and bound the heap it keeps per stored
// cuboid. A compiled cuboid costs 16 B of sorted values and weights plus its
// 2 B permutation entry; with the per-signature share (compiled header, LSB
// entries and keys, id tables) this corpus measures 27.0 B. Keeping a raw
// copy of every series beside the compiled one, with signatures in the LSB
// payload, measured 44.4 B, so a raw copy coming back fails the bound.
func TestRetainedBytesPerCuboid(t *testing.T) {
	const (
		clips, sigs, cuboids = 1500, 6, 32
		bound                = 36.0
	)
	rng := rand.New(rand.NewSource(9))
	opts := DefaultOptions()
	opts.K = 12
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRecommender(opts)
	for i := 0; i < clips; i++ {
		series := make(signature.Series, sigs)
		for s := range series {
			cb := make([]signature.Cuboid, cuboids)
			for k := range cb {
				cb[k] = signature.Cuboid{V: 10 * rng.NormFloat64(), Mu: 1.0 / cuboids}
			}
			series[s].Cuboids = cb
		}
		r.IngestSeries(fmt.Sprintf("v%05d", i), series, social.NewDescriptor("", synthUser(i%synthFandoms, i)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	perCuboid := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (clips * sigs * cuboids)
	t.Logf("%.1f B retained per stored cuboid", perCuboid)
	if perCuboid > bound {
		t.Fatalf("the engine retains %.1f B per stored cuboid, over the %.0f B bound: is a raw copy of the series kept again?", perCuboid, bound)
	}
}

// TestFromSnapshotRejectsUncompilableContent: a snapshot whose grid could
// yield signatures past signature.MaxCuboids, or that holds such a
// signature, is an error on load, not a panic at ingest.
func TestFromSnapshotRejectsUncompilableContent(t *testing.T) {
	wide := &Snapshot{Options: DefaultOptions()}
	wide.Options.Sig.Grid = signature.MaxGrid + 1
	if _, err := FromSnapshot(wide); err == nil {
		t.Error("a snapshot with grid MaxGrid+1 loaded")
	}
	big := &Snapshot{
		Options: DefaultOptions(),
		Records: []RecordSnapshot{{ID: "big", Series: signature.Series{{Cuboids: make([]signature.Cuboid, signature.MaxCuboids+1)}}}},
		Order:   []string{"big"},
	}
	if _, err := FromSnapshot(big); err == nil {
		t.Error("a snapshot with a signature of MaxCuboids+1 cuboids loaded")
	}
}
