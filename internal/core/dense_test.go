package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"videorec/internal/signature"
	"videorec/internal/social"
)

// referenceCandidates recomputes candidate generation (steps 1–2) with the
// straightforward map-based pipeline the dense path replaced: the
// inverted-file union as a scan over every record's vector into a string map,
// social ranking by full sort, and the LCP walk deduplicated through the map.
// The returned set excludes the excluded ids, like gather's merged list.
func referenceCandidates(v *View, q Query, exclude ...string) map[string]bool {
	opts := v.Options()
	excl := map[string]bool{}
	for _, id := range exclude {
		excl[id] = true
	}
	qvec := social.Vectorize(q.Desc, v.part.Lookup, v.part.Dim)
	candidates := map[string]bool{}
	// Union = every live video sharing a non-zero dimension with the query
	// vector; keep the CandidateLimit best by (s̃J desc, id asc). Excluded
	// ids still occupy selection slots.
	type scored struct {
		id string
		s  float64
	}
	var cands []scored
	for _, id := range v.orderIDs() {
		rec := v.record(id)
		inUnion := false
		for d, x := range qvec {
			if x > 0 && d < len(rec.Vec) && rec.Vec[d] > 0 {
				inUnion = true
				break
			}
		}
		if inUnion {
			cands = append(cands, scored{id, social.ApproxJaccard(qvec, rec.Vec)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].s != cands[b].s {
			return cands[a].s > cands[b].s
		}
		return cands[a].id < cands[b].id
	})
	if len(cands) > opts.CandidateLimit {
		cands = cands[:opts.CandidateLimit]
	}
	for _, c := range cands {
		candidates[c.id] = true
	}
	w := v.lsb.NewWalker(q.seriesOf())
	added := 0
	for pops := 0; pops < opts.ContentProbe; pops++ {
		e, _, ok := w.Next()
		if !ok {
			break
		}
		id := v.ids.At(e.Video)
		if v.tombstones.Has(e.Video) || candidates[id] {
			continue
		}
		candidates[id] = true
		added++
		if added >= 2*opts.CandidateLimit {
			break
		}
	}
	for id := range excl {
		delete(candidates, id)
	}
	return candidates
}

// referenceRecommend scores the reference candidate set directly — uncompiled
// κJ, dense s̃J with users mapped through the partition, Equation 9 fusion — and ranks by a
// full sort under (score desc, id asc). It is the executable specification
// the dense pipeline (bitset candidates, sparse s̃J over impact postings,
// quickselect budget cut, heap walker, pooled scratch, heap top-K) must
// reproduce bit for bit.
func referenceRecommend(v *View, q Query, topK int, exclude ...string) []Result {
	opts := v.Options()
	qvec := social.Vectorize(q.Desc, v.part.Lookup, v.part.Dim)
	ids := make([]string, 0, 64)
	for id := range referenceCandidates(v, q, exclude...) {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	results := make([]Result, 0, len(ids))
	for _, id := range ids {
		rec := v.record(id)
		content := signature.KJ(q.seriesOf(), rec.Compiled.Series(), opts.MatchThreshold)
		soc := social.ApproxJaccard(qvec, rec.Vec)
		results = append(results, Result{VideoID: id, Score: v.fuse(content, soc), Content: content, Social: soc})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Score != results[b].Score {
			return results[a].Score > results[b].Score
		}
		return results[a].VideoID < results[b].VideoID
	})
	if len(results) > topK {
		results = results[:topK]
	}
	return results
}

// TestDenseRecommendMatchesReference proves the dense-ID rewrite is a pure
// representation change: across every variant and candidate budget, Recommend must return rankings bit-identical to the
// map-based reference pipeline — same ids, same fused scores, same component
// relevances, same order.
func TestDenseRecommendMatchesReference(t *testing.T) {
	const topK = 10
	for _, tc := range modeVariants {
		t.Run(tc.name, func(t *testing.T) {
			base := buildGolden(t, tc.mutate)
			for _, limit := range cutLimits {
				v := withOptions(base, func(o *Options) { o.CandidateLimit = limit })
				for _, id := range goldenQueries(t, v, 8) {
					q, ok := v.QueryFor(id)
					if !ok {
						t.Fatalf("missing record %s", id)
					}
					got := v.Recommend(q, topK, id)
					want := referenceRecommend(v, q, topK, id)
					if !resultsEqual(got, want) {
						t.Fatalf("query %s, candidate limit %d: dense pipeline diverged from reference\ndense:     %+v\nreference: %+v", id, limit, got, want)
					}
					// A budget of one can be spent on the excluded query
					// itself; the default budget must leave an answer.
					if len(got) == 0 && limit == cutLimits[0] {
						t.Fatalf("query %s returned no results", id)
					}
				}
			}
		})
	}
}

// cutLimits are the CandidateLimit values the candidate-set tests run at:
// the default, which the test fixtures never reach, and budgets small
// enough that step 1's cut binds on most queries, often inside a run of
// equal s̃J scores.
var cutLimits = []int{DefaultOptions().CandidateLimit, 1, 3, 7, 25}

// gatherSet runs the production gather and returns the merged candidate list
// as a string set.
func gatherSet(t *testing.T, v *View, q Query, exclude ...string) map[string]bool {
	t.Helper()
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)
	if err := v.gather(context.Background(), q, qs); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, i := range qs.merged {
		out[v.ids.At(i)] = true
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestGatherMatchesReferenceUnderMutation is the candidate-set property test:
// through removals, re-ingestion of a removed id (which revives its dense
// slot while its tombstone persists until compaction) and incremental updates
// (which can grow the inverted files), the sparse-s̃J gather must return
// exactly the candidate set of the map-based reference — including
// exclusion handling, and at budgets that cut the social ranking.
func TestGatherMatchesReferenceUnderMutation(t *testing.T) {
	r, c := buildSmall(t)

	check := func(stage string) {
		frozen := r.Freeze()
		ids := frozen.SortedIDs()
		probe := ids
		if len(probe) > 6 {
			probe = probe[:6]
		}
		for _, limit := range cutLimits {
			v := withOptions(frozen, func(o *Options) { o.CandidateLimit = limit })
			for _, id := range probe {
				q, ok := v.QueryFor(id)
				if !ok {
					t.Fatalf("%s: missing record %s", stage, id)
				}
				got := gatherSet(t, v, q, id)
				want := referenceCandidates(v, q, id)
				if !sameSet(got, want) {
					t.Fatalf("%s: query %s, candidate limit %d: gather set diverged\ndense:     %d candidates\nreference: %d candidates", stage, id, limit, len(got), len(want))
				}
				// And with no exclusions at all.
				got = gatherSet(t, v, q)
				want = referenceCandidates(v, q)
				if !sameSet(got, want) {
					t.Fatalf("%s: query %s, candidate limit %d (no exclude): gather set diverged", stage, id, limit)
				}
			}
		}
	}

	check("fresh build")

	// Remove a few videos: postings vanish immediately, tombstones filter the
	// stale LSB entries.
	all := r.SortedIDs()
	removed := []string{all[1], all[3], all[5]}
	for _, id := range removed {
		if !r.RemoveVideo(id) {
			t.Fatalf("RemoveVideo(%s) = false", id)
		}
	}
	check("after removals")

	// Re-ingest one removed id: it reclaims its dense slot; the tombstone
	// stays until the next BuildSocial, so only its fresh inverted postings
	// (added on the next build) make it a candidate.
	rec0, _ := r.Record(all[0])
	r.IngestSeries(removed[0], rec0.Compiled.Series(), social.NewDescriptor("revived-owner", c.Users[0], c.Users[1]))
	r.BuildSocial()
	check("after re-ingest and rebuild")

	// Incremental updates touch dimensions and can mint new ones (growing
	// the inverted files).
	target := r.SortedIDs()[0]
	r.ApplyUpdates(map[string][]string{
		target: {"new-user-a", "new-user-b", c.Users[2]},
	})
	check("after ApplyUpdates")
}

// topCandidates must keep exactly the prefix a full (s desc, id asc) sort
// keeps. The id strings run against the dense order, so a selection that
// broke ties by dense index would keep the wrong clips, and the scores take
// at most four values, so the cut lands inside a run of ties on almost every
// input. A warm call allocates nothing, ties included.
func TestTopCandidatesMatchesSort(t *testing.T) {
	const maxN = 5 * 400
	var ids cowVec[string]
	for i := 0; i < maxN; i++ {
		ids.Append(fmt.Sprintf("v%05d", maxN-i))
	}
	levels := []float64{0, 0.25, 0.5, 1}
	rng := rand.New(rand.NewSource(7))
	inputs := []struct {
		name  string
		score func(k, n int) float64
	}{
		{"random", func(int, int) float64 { return levels[rng.Intn(len(levels))] }},
		{"sorted", func(k, n int) float64 { return levels[k*len(levels)/n] }},
		{"reverse-sorted", func(k, n int) float64 { return levels[len(levels)-1-k*len(levels)/n] }},
		{"all-equal", func(int, int) float64 { return levels[2] }},
	}
	for _, limit := range []int{1, 2, 400} {
		for _, n := range []int{0, 1, limit - 1, limit, limit + 1, 5 * limit} {
			for _, in := range inputs {
				c := make([]scoredCand, n)
				for k := range c {
					c[k] = scoredCand{i: uint32(k), s: in.score(k, n)}
				}
				if in.name == "random" {
					rng.Shuffle(n, func(a, b int) { c[a], c[b] = c[b], c[a] })
				}
				want := slices.Clone(c)
				slices.SortFunc(want, func(a, b scoredCand) int {
					if x := cmp.Compare(b.s, a.s); x != 0 {
						return x
					}
					return strings.Compare(ids.At(a.i), ids.At(b.i))
				})
				want = want[:min(limit, n)]
				got := topCandidates(c, limit, &ids)
				if len(got) != len(want) {
					t.Fatalf("limit %d, n %d, %s: kept %d, want %d", limit, n, in.name, len(got), len(want))
				}
				kept := map[uint32]float64{}
				for _, g := range got {
					kept[g.i] = g.s
				}
				for _, w := range want {
					if s, ok := kept[w.i]; !ok || s != w.s {
						t.Fatalf("limit %d, n %d, %s: the sort keeps %+v, the selection does not", limit, n, in.name, w)
					}
				}
			}
		}
	}

	if raceEnabled {
		return // race detector instrumentation allocates
	}
	src := make([]scoredCand, maxN)
	for k := range src {
		src[k] = scoredCand{i: uint32(k), s: levels[k%len(levels)]}
	}
	work := make([]scoredCand, maxN)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, src)
		topCandidates(work, 400, &ids)
	}); allocs != 0 {
		t.Errorf("topCandidates allocates %.1f/op warm, want 0", allocs)
	}
}

// TestGatherCandidatesZeroAlloc pins warm-path candidate gathering — query
// vectorization, s̃J accumulation, social top-K selection, the LCP walk
// and the merged-list build — to zero allocations per query.
func TestGatherCandidatesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	v := buildGolden(t, nil)
	ids := v.SortedIDs()
	q, ok := v.QueryFor(ids[0])
	if !ok {
		t.Fatal("missing record")
	}
	ctx := context.Background()
	// Warm the pooled scratch to its high-water mark across several queries.
	for _, id := range ids {
		wq, _ := v.QueryFor(id)
		if _, err := v.GatherCandidates(ctx, wq, id); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := v.GatherCandidates(ctx, q, ids[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GatherCandidates allocates %.1f/op warm, want 0", allocs)
	}
}

// TestInternSharedAcrossClones verifies the copy-on-write id table: clones
// share every page of it until a genuinely new id is minted, a mint copies
// only the page it lands in, published views never see the new id, and
// re-ingesting known ids mints nothing.
func TestInternSharedAcrossClones(t *testing.T) {
	r, _ := buildSmall(t)
	v1 := r.Freeze()
	n := v1.ids.Len()

	// Mutation that mints nothing: every page stays shared.
	target := r.SortedIDs()[0]
	rec, _ := r.Record(target)
	r.IngestSeries(target, rec.Compiled.Series(), rec.Desc)
	if r.state.ids.Len() != n || !slices.Equal(r.state.ids.pages, v1.ids.pages) {
		t.Error("re-ingesting a known id wrote the id table")
	}

	// Minting a new id copies the last page; the published views keep theirs.
	v2 := r.Freeze()
	r.IngestSeries("brand-new-video", rec.Compiled.Series(), rec.Desc)
	last := len(v2.ids.pages) - 1
	if r.state.ids.pages[last] == v2.ids.pages[last] {
		t.Error("minting a new id wrote a page the published view shares")
	}
	if !slices.Equal(r.state.ids.pages[:last], v2.ids.pages[:last]) {
		t.Error("minting a new id copied pages it did not write")
	}
	for _, v := range []*View{v1, v2} {
		if _, ok := v.index("brand-new-video"); ok || v.ids.Len() != n {
			t.Error("new id leaked into a frozen view's table")
		}
		if i, ok := v.index(target); !ok || v.ids.At(i) != target {
			t.Error("frozen view lost an existing id")
		}
	}
	if i, ok := r.state.index("brand-new-video"); !ok || int(i) != n {
		t.Errorf("new id resolves to (%d, %v), want the next dense index %d", i, ok, n)
	}
	if i, ok := r.state.index(target); !ok || r.state.ids.At(i) != target {
		t.Error("writer lost an existing id")
	}
}

// TestDenseIndexStableAcrossRemoveReingest verifies index stability: a
// removed id reclaims the same dense slot on re-ingest.
func TestDenseIndexStableAcrossRemoveReingest(t *testing.T) {
	r, _ := buildSmall(t)
	id := r.SortedIDs()[2]
	before, ok := r.state.index(id)
	if !ok {
		t.Fatal("id not interned")
	}
	rec, _ := r.Record(id)
	series, desc := rec.Compiled.Series(), rec.Desc
	if !r.RemoveVideo(id) {
		t.Fatal("remove failed")
	}
	if r.state.recs.At(before) != nil {
		t.Fatal("dense slot not cleared on removal")
	}
	r.IngestSeries(id, series, desc)
	after, _ := r.state.index(id)
	if after != before {
		t.Errorf("dense index changed across remove/re-ingest: %d -> %d", before, after)
	}
	if r.state.recs.At(after) == nil {
		t.Error("dense slot not repopulated")
	}
}

// TestVideosPerDimMatchesPostings cross-checks the posting-list-length report
// against a recount from the records themselves.
func TestVideosPerDimMatchesPostings(t *testing.T) {
	v := buildGolden(t, nil)
	got := v.VideosPerDim()
	want := make([]int, v.part.Dim)
	for _, rec := range v.recs.All() {
		if rec == nil {
			continue
		}
		for d, x := range rec.Vec {
			if x > 0 && d < len(want) {
				want[d]++
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("VideosPerDim len = %d, want %d", len(got), len(want))
	}
	for d := range got {
		if got[d] != want[d] {
			t.Errorf("dim %d: VideosPerDim = %d, recount = %d", d, got[d], want[d])
		}
	}
}

func BenchmarkGatherCandidates(b *testing.B) {
	v := buildGolden(b, nil)
	q, _ := v.QueryFor(v.SortedIDs()[0])
	ctx := context.Background()
	if _, err := v.GatherCandidates(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.GatherCandidates(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// checkSparseInputs checks what the sparse s̃J of step 1 and refinement's
// bound pass assume of a view: every stored SAR vector is integral, the mass
// column holds Σ Vec (0 for a dead slot), the envelope column holds the
// compiled series' envelope (deadEnv for a dead slot), the sketch column
// aliases the compiled series' sketches (empty for a dead slot), every
// posting carries its video's count, and every query vector the gather
// builds is integral with |q| = Σ qvec.
func checkSparseInputs(t *testing.T, stage string, v *View, strangers []string) {
	t.Helper()
	if v.mass.Len() != v.ids.Len() || v.env.Len() != v.ids.Len() || v.sketches.Len() != v.ids.Len() {
		t.Fatalf("%s: mass, envelope and sketch columns have %d, %d and %d slots, id table %d",
			stage, v.mass.Len(), v.env.Len(), v.sketches.Len(), v.ids.Len())
	}
	for i, rec := range v.recs.All() {
		sk := v.sketches.At(uint32(i))
		var want []signature.Sketch
		if rec != nil {
			want = rec.Compiled.Sketches
		}
		if len(sk) != len(want) || len(sk) > 0 && &sk[0] != &want[0] {
			t.Fatalf("%s: slot %d's sketches (%d) do not alias its compiled series' (%d)", stage, i, len(sk), len(want))
		}
	}
	integral := func(x float64) bool { return x >= 0 && x == math.Trunc(x) && x < 1<<32 }
	for i, rec := range v.recs.All() {
		if rec == nil {
			if m := v.mass.At(uint32(i)); m != 0 {
				t.Fatalf("%s: dead slot %d has mass %d", stage, i, m)
			}
			if e := v.env.At(uint32(i)); e != deadEnv || e.N >= 0 {
				t.Fatalf("%s: dead slot %d has envelope %+v, which reads as live", stage, i, e)
			}
			continue
		}
		if e, want := v.env.At(uint32(i)), rec.Compiled.Envelope(); e != want || e.N < 0 {
			t.Fatalf("%s: %s envelope %+v, compiled series has %+v (N < 0 reads as dead)", stage, rec.ID, e, want)
		}
		var sum float64
		for d, x := range rec.Vec {
			if !integral(x) {
				t.Fatalf("%s: %s Vec[%d] = %v is not a count", stage, rec.ID, d, x)
			}
			sum += x
			if x == 0 {
				continue
			}
			j, ok := slices.BinarySearch(v.inv.Postings(d), uint32(i))
			if !ok || v.inv.Counts(d)[j] != uint32(x) {
				t.Fatalf("%s: %s Vec[%d] = %v, not posted with that count", stage, rec.ID, d, x)
			}
		}
		if m := v.mass.At(uint32(i)); float64(m) != sum {
			t.Fatalf("%s: %s mass %d, Σ Vec = %v", stage, rec.ID, m, sum)
		}
	}
	queries := []Query{{Desc: social.NewDescriptor("", strangers...)}}
	for _, id := range v.SortedIDs()[:8] {
		q, _ := v.QueryFor(id)
		q.Desc = q.Desc.Add(strangers...)
		queries = append(queries, q)
	}
	for _, q := range queries {
		qs := v.getScratch()
		if err := v.gather(context.Background(), q, qs); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for d, x := range qs.qvec {
			if !integral(x) {
				t.Fatalf("%s: query vector [%d] = %v is not a count", stage, d, x)
			}
			sum += x
		}
		if float64(qs.qmass) != sum {
			t.Fatalf("%s: |q| = %d, Σ qvec = %v", stage, qs.qmass, sum)
		}
		v.putScratch(qs)
	}
}

// TestSparseInputsHoldUnderMutation runs checkSparseInputs through every
// path that writes a SAR vector or a record: the build, comment batches
// (with unknown users), removal, re-ingest of a removed id, a forced
// compaction and a snapshot reload. A comment batch re-vectorizes records
// but changes no series, so it must copy no envelope or sketch page.
func TestSparseInputsHoldUnderMutation(t *testing.T) {
	r, c := buildSmall(t)
	strangers := []string{"stranger-a", "stranger-b"}
	prev := r.Freeze()
	checkSparseInputs(t, "build", prev, strangers)

	ids := r.SortedIDs()
	for step := 0; step < 3; step++ {
		batch := map[string][]string{}
		for k, id := range ids[step*5 : step*5+5] {
			batch[id] = []string{c.Users[(step*7+k)%len(c.Users)], c.Users[(step*11+3*k)%len(c.Users)], strangers[k%2]}
		}
		if rep := r.ApplyUpdates(batch); rep.VideosRevectorized == 0 {
			t.Fatal("the batch re-vectorized nothing; the envelope sharing check would prove nothing")
		}
		next := r.Freeze()
		checkSparseInputs(t, "ApplyUpdates", next, strangers)
		if !slices.Equal(next.env.pages, prev.env.pages) || !slices.Equal(next.sketches.pages, prev.sketches.pages) {
			t.Fatal("a comment batch copied an envelope or sketch page")
		}
		prev = next
	}

	removed := ids[2]
	rec, _ := r.Record(removed)
	r.RemoveVideo(removed)
	r.RemoveVideo(ids[4])
	checkSparseInputs(t, "RemoveVideo", r.Freeze(), strangers)
	r.IngestSeries(removed, rec.Compiled.Series(), rec.Desc.Add(c.Users[0]))
	// A live clip with an empty series: its envelope (N = 0) must not read
	// as a dead slot, and it must still be ranked, on s̃J alone.
	src, _ := r.Record(ids[0])
	r.IngestSeries("empty-series", nil, social.NewDescriptor("", src.Desc.Users()...))
	r.BuildSocial() // compacts the tombstoned LSB entries
	if r.Tombstones() != 0 {
		t.Fatalf("%d tombstones after the rebuild", r.Tombstones())
	}
	v := r.Freeze()
	checkSparseInputs(t, "re-ingest and compaction", v, strangers)
	q, _ := v.QueryFor(ids[0])
	got := v.Recommend(q, v.Len(), ids[0])
	if want := referenceRecommend(v, q, v.Len(), ids[0]); !resultsEqual(got, want) {
		t.Fatalf("with an empty-series clip stored: dense pipeline diverged from reference\ndense:     %+v\nreference: %+v", got, want)
	}
	if !slices.ContainsFunc(got, func(res Result) bool { return res.VideoID == "empty-series" && res.Social > 0 }) {
		t.Fatal("the empty-series clip sharing the query's commenters was not ranked")
	}

	loaded, err := FromSnapshot(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	checkSparseInputs(t, "snapshot reload", loaded.Freeze(), strangers)
}
