package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"videorec/internal/dataset"
	"videorec/internal/social"
	"videorec/internal/video"
)

// buildSmall ingests a small synthetic collection and returns the
// recommender plus the collection for ground truth.
func buildSmall(t testing.TB, mode Mode) (*Recommender, *dataset.Collection) {
	t.Helper()
	o := dataset.DefaultOptions()
	o.Hours = 4
	o.Users = 150
	o.Seed = 11
	c := dataset.Generate(o)
	opts := DefaultOptions()
	opts.Mode = mode
	opts.K = 12
	r := NewRecommender(opts)
	for _, it := range c.Items {
		v := it.Render(o.Synth)
		r.IngestVideo(it.ID, v, descriptorOf(c, it))
	}
	r.BuildSocial()
	return r, c
}

func descriptorOf(c *dataset.Collection, it *dataset.Item) social.Descriptor {
	var users []string
	for _, cm := range it.Comments {
		if cm.Month < c.Opts.MonthsSource {
			users = append(users, cm.User)
		}
	}
	return social.NewDescriptor(it.Owner, users...)
}

func TestModeString(t *testing.T) {
	if ModeExact.String() != "CSF" || ModeSAR.String() != "CSF-SAR" || ModeSARHash.String() != "CSF-SAR-H" {
		t.Error("mode names wrong")
	}
	if Mode(99).String() != "Mode(99)" {
		t.Error("unknown mode formatting")
	}
}

func TestIngestAndLen(t *testing.T) {
	r := NewRecommender(DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	v := video.Synthesize("a", 1, video.DefaultSynthOptions(), rng)
	r.IngestVideo("a", v, social.NewDescriptor("owner", "u1"))
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	rec, ok := r.Record("a")
	if !ok || len(rec.Compiled.Series()) == 0 {
		t.Fatal("record missing or empty series")
	}
	// Re-ingesting replaces, not duplicates.
	r.IngestVideo("a", v, social.NewDescriptor("owner"))
	if r.Len() != 1 {
		t.Errorf("Len after re-ingest = %d", r.Len())
	}
}

func TestRecommendPanicsWithoutBuild(t *testing.T) {
	r := NewRecommender(DefaultOptions()) // ModeSARHash
	rng := rand.New(rand.NewSource(1))
	v := video.Synthesize("a", 1, video.DefaultSynthOptions(), rng)
	desc := social.NewDescriptor("o", "u")
	r.IngestVideo("a", v, desc)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Recommend(Query{Desc: desc}, 5)
}

func TestRecommendExcludesQueryVideo(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	id := r.state.orderIDs()[0]
	for _, res := range r.RecommendID(id, 10) {
		if res.VideoID == id {
			t.Fatalf("query video %s recommended to itself", id)
		}
	}
}

func TestRecommendTopKOrderedAndBounded(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	res := r.RecommendID(r.state.orderIDs()[1], 7)
	if len(res) > 7 {
		t.Fatalf("returned %d > topK", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("results not sorted: %g after %g", res[i].Score, res[i-1].Score)
		}
	}
	for _, x := range res {
		if x.Score < 0 || x.Score > 1 {
			t.Errorf("score %g out of [0,1]", x.Score)
		}
	}
}

func TestRecommendFindsNearDuplicate(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)
	// Pick a dup whose original exists; the original should rank well for
	// the dup's query under content-heavy fusion.
	opts := r.Options()
	_ = opts
	var dup *dataset.Item
	for _, it := range c.Items {
		if it.DupOf() != "" {
			dup = it
			break
		}
	}
	if dup == nil {
		t.Skip("no dup in collection")
	}
	// The original must rank among the top content matches for the dup's
	// query (the "matched videos" half of the paper's story); with shared
	// pool footage other same-topic clips may also score, so check the
	// content component specifically.
	q, _ := r.QueryFor(dup.ID)
	contentOf := map[string]float64{}
	res := r.Recommend(q, r.Len(), dup.ID)
	for _, x := range res {
		contentOf[x.VideoID] = x.Content
	}
	better := 0
	for id, cs := range contentOf {
		if id != dup.DupOf() && cs > contentOf[dup.DupOf()] {
			better++
		}
	}
	if contentOf[dup.DupOf()] <= 0 {
		t.Fatalf("original %s has zero content relevance for dup %s", dup.DupOf(), dup.ID)
	}
	if better > 5 {
		t.Errorf("original %s outranked by %d videos on content", dup.DupOf(), better)
	}
}

func TestSARModesAgreeOnScores(t *testing.T) {
	// ModeSAR and ModeSARHash must produce identical rankings: they compute
	// the same s̃J through different dictionaries.
	rs, c := buildSmall(t, ModeSAR)
	rh, _ := buildSmall(t, ModeSARHash)
	for _, q := range c.Queries {
		src := q.Sources[0]
		a := rs.RecommendID(src, 10)
		b := rh.RecommendID(src, 10)
		if len(a) != len(b) {
			t.Fatalf("lengths differ for %s: %d vs %d", src, len(a), len(b))
		}
		for i := range a {
			if a[i].VideoID != b[i].VideoID || a[i].Score != b[i].Score {
				t.Fatalf("rank %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

func TestExactModeScoresAllVideos(t *testing.T) {
	r, _ := buildSmall(t, ModeExact)
	id := r.state.orderIDs()[0]
	res := r.RecommendID(id, r.Len())
	if len(res) != r.Len()-1 {
		t.Errorf("exact mode refined %d videos, want %d", len(res), r.Len()-1)
	}
}

func TestContentOnlyAndSocialOnly(t *testing.T) {
	o := dataset.DefaultOptions()
	o.Hours = 3
	o.Users = 100
	o.Seed = 5
	c := dataset.Generate(o)

	copts := DefaultOptions()
	copts.ContentWeightOnly = true
	cr := NewRecommender(copts)
	sopts := DefaultOptions()
	sopts.SocialOnly = true
	sopts.K = 12
	sr := NewRecommender(sopts)
	for _, it := range c.Items {
		v := it.Render(o.Synth)
		d := descriptorOf(c, it)
		cr.IngestVideo(it.ID, v, d)
		sr.IngestVideo(it.ID, v, d)
	}
	cr.BuildSocial()
	sr.BuildSocial()

	src := c.Queries[0].Sources[0]
	for _, res := range cr.RecommendID(src, 5) {
		if res.Social != 0 {
			t.Errorf("CR result has social component %g", res.Social)
		}
		if res.Score != res.Content {
			t.Errorf("CR score %g != content %g", res.Score, res.Content)
		}
	}
	for _, res := range sr.RecommendID(src, 5) {
		if res.Content != 0 {
			t.Errorf("SR result has content component %g", res.Content)
		}
		if res.Score != res.Social {
			t.Errorf("SR score %g != social %g", res.Score, res.Social)
		}
	}
}

func TestNaiveJaccardMatchesLinear(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		mk := func(seed uint16) social.Descriptor {
			rng := rand.New(rand.NewSource(int64(seed)))
			var us []string
			for i := 0; i < rng.Intn(12); i++ {
				us = append(us, fmt.Sprintf("u%d", rng.Intn(15)))
			}
			return social.NewDescriptor("", us...)
		}
		a, b := mk(seedA), mk(seedB)
		naive := naiveJaccard(a, b)
		linear := social.Jaccard(a, b)
		return naive == linear
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUpdatesGrowsDescriptors(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)
	target := r.state.orderIDs()[0]
	before := r.state.record(target).Desc.Len()
	newUsers := []string{"brand-new-1", "brand-new-2", c.Users[0]}
	rep := r.ApplyUpdates(map[string][]string{target: newUsers})
	after := r.state.record(target).Desc.Len()
	if after <= before {
		t.Errorf("descriptor did not grow: %d -> %d", before, after)
	}
	if rep.VideosRevectorized == 0 {
		t.Error("no videos re-vectorized")
	}
	if rep.Maintenance.NewConnections == 0 {
		t.Error("no connections derived from the comments")
	}
}

func TestApplyUpdatesKeepsRecommendationsWorking(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)
	// Replay the test period's comments month by month.
	months := c.Opts.MonthsSource
	for m := months; m < months+c.Opts.MonthsTest; m++ {
		batch := map[string][]string{}
		for _, it := range c.Items {
			for _, cm := range it.Comments {
				if cm.Month == m {
					batch[it.ID] = append(batch[it.ID], cm.User)
				}
			}
		}
		r.ApplyUpdates(batch)
	}
	res := r.RecommendID(c.Queries[0].Sources[0], 10)
	if len(res) == 0 {
		t.Fatal("no recommendations after updates")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results unsorted after updates")
		}
	}
}

func TestVideosPerDim(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	dims := r.VideosPerDim()
	if len(dims) != r.Partition().Dim {
		t.Fatalf("VideosPerDim len = %d, want %d", len(dims), r.Partition().Dim)
	}
	total := 0
	for _, n := range dims {
		total += n
	}
	if total == 0 {
		t.Error("all inverted files empty")
	}
}

func TestRecommendZeroK(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	if res := r.RecommendID(r.state.orderIDs()[0], 0); res != nil {
		t.Errorf("topK=0 returned %v", res)
	}
}

func TestRecommendUnknownID(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	if res := r.RecommendID("no-such-video", 5); res != nil {
		t.Errorf("unknown id returned %v", res)
	}
}

func BenchmarkRecommendSARHash(b *testing.B) {
	r, c := buildSmall(b, ModeSARHash)
	src := c.Queries[0].Sources[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecommendID(src, 10)
	}
}

func BenchmarkRecommendExact(b *testing.B) {
	r, c := buildSmall(b, ModeExact)
	src := c.Queries[0].Sources[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecommendID(src, 10)
	}
}

func BenchmarkBuildSocial(b *testing.B) {
	r, _ := buildSmall(b, ModeSARHash)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BuildSocial()
	}
}

// orderIDs is the ingestion order of the live videos, by id.
func (v *View) orderIDs() []string {
	var ids []string
	for _, i := range v.ordered() {
		ids = append(ids, v.ids.At(i))
	}
	return ids
}
