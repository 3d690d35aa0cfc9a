package core

import (
	"context"
	"slices"
	"sort"
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
	useSocial := !opts.ContentWeightOnly
	useContent := !opts.SocialOnly
	excl := map[string]bool{}
	for _, id := range exclude {
		excl[id] = true
	}
	var qvec social.Vector
	if useSocial && opts.Mode != ModeExact {
		qvec = social.Vectorize(q.Desc, v.lookupFunc(), v.part.Dim)
	}
	candidates := map[string]bool{}
	if opts.FullScan || (opts.Mode == ModeExact && useSocial) {
		for _, id := range v.orderIDs() {
			candidates[id] = true
		}
	} else {
		if useSocial {
			// Union = every live video sharing a non-zero dimension with the
			// query vector; keep the CandidateLimit best by (s̃J desc, id asc).
			// Excluded ids still occupy selection slots.
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
		}
		if useContent {
			w := v.lsb.NewWalker(q.Series)
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
		}
	}
	for id := range excl {
		delete(candidates, id)
	}
	return candidates
}

// referenceRecommend scores the reference candidate set directly — uncompiled
// κJ, mode-appropriate social relevance, Equation 9 fusion — and ranks by a
// full sort under (score desc, id asc). It is the executable specification
// the dense pipeline (bitset candidates, k-way posting merge, heap walker,
// pooled scratch, heap top-K) must reproduce bit for bit.
func referenceRecommend(v *View, q Query, topK int, exclude ...string) []Result {
	opts := v.Options()
	useSocial := !opts.ContentWeightOnly
	useContent := !opts.SocialOnly
	var qvec social.Vector
	if useSocial && opts.Mode != ModeExact {
		qvec = social.Vectorize(q.Desc, v.lookupFunc(), v.part.Dim)
	}
	ids := make([]string, 0, 64)
	for id := range referenceCandidates(v, q, exclude...) {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	results := make([]Result, 0, len(ids))
	for _, id := range ids {
		rec := v.record(id)
		var content, soc float64
		if useContent {
			content = signature.KJ(q.Series, rec.Series, opts.MatchThreshold)
		}
		if useSocial {
			soc = v.socialRelevanceRec(q, qvec, rec)
		}
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
// representation change: across every mode, candidate policy and worker
// count, Recommend must return rankings bit-identical to the map-based
// reference pipeline — same ids, same fused scores, same component
// relevances, same order.
func TestDenseRecommendMatchesReference(t *testing.T) {
	const topK = 10
	for _, tc := range modeVariants {
		t.Run(tc.name, func(t *testing.T) {
			v := buildGolden(t, tc.mutate)
			for _, id := range goldenQueries(t, v, 8) {
				q, ok := v.QueryFor(id)
				if !ok {
					t.Fatalf("missing record %s", id)
				}
				got := v.Recommend(q, topK, id)
				want := referenceRecommend(v, q, topK, id)
				if !resultsEqual(got, want) {
					t.Fatalf("query %s: dense pipeline diverged from reference\ndense:     %+v\nreference: %+v", id, got, want)
				}
				if len(got) == 0 {
					t.Fatalf("query %s returned no results", id)
				}
			}
		})
	}
}

// gatherSet runs the production gather and returns the merged candidate list
// as a string set.
func gatherSet(t *testing.T, v *View, q Query, exclude ...string) map[string]bool {
	t.Helper()
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)
	if _, _, err := v.gather(context.Background(), q, qs); err != nil {
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
// (which can grow the inverted files), the dense k-way-merge gather must
// return exactly the candidate set of the map-based reference — including
// exclusion handling.
func TestGatherMatchesReferenceUnderMutation(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)

	check := func(stage string) {
		v := r.Freeze()
		ids := v.SortedIDs()
		probe := ids
		if len(probe) > 6 {
			probe = probe[:6]
		}
		for _, id := range probe {
			q, ok := v.QueryFor(id)
			if !ok {
				t.Fatalf("%s: missing record %s", stage, id)
			}
			got := gatherSet(t, v, q, id)
			want := referenceCandidates(v, q, id)
			if !sameSet(got, want) {
				t.Fatalf("%s: query %s gather set diverged\ndense:     %d candidates\nreference: %d candidates", stage, id, len(got), len(want))
			}
			// And with no exclusions at all.
			got = gatherSet(t, v, q)
			want = referenceCandidates(v, q)
			if !sameSet(got, want) {
				t.Fatalf("%s: query %s (no exclude) gather set diverged", stage, id)
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
	r.IngestSeries(removed[0], rec0.Series, social.NewDescriptor("revived-owner", c.Users[0], c.Users[1]))
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

// TestGatherCandidatesZeroAlloc pins warm-path candidate gathering — query
// vectorization, posting-list union, social top-K selection, the LCP walk
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
	r, _ := buildSmall(t, ModeSARHash)
	v1 := r.Freeze()
	n := v1.ids.Len()

	// Mutation that mints nothing: every page stays shared.
	target := r.SortedIDs()[0]
	rec, _ := r.Record(target)
	r.IngestSeries(target, rec.Series, rec.Desc)
	if r.state.ids.Len() != n || !slices.Equal(r.state.ids.pages, v1.ids.pages) {
		t.Error("re-ingesting a known id wrote the id table")
	}

	// Minting a new id copies the last page; the published views keep theirs.
	v2 := r.Freeze()
	r.IngestSeries("brand-new-video", rec.Series, rec.Desc)
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
	r, _ := buildSmall(t, ModeSARHash)
	id := r.SortedIDs()[2]
	before, ok := r.state.index(id)
	if !ok {
		t.Fatal("id not interned")
	}
	rec, _ := r.Record(id)
	series, desc := rec.Series, rec.Desc
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
	for _, mode := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"social", func(o *Options) { o.SocialOnly = true }},
		{"content", func(o *Options) { o.ContentWeightOnly = true }},
		{"fused", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			v := buildGolden(b, mode.mutate)
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
		})
	}
}
