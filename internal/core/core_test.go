package core

import (
	"math/rand"
	"testing"

	"videorec/internal/dataset"
	"videorec/internal/oracle"
	"videorec/internal/social"
	"videorec/internal/video"
)

// buildSmall ingests a small synthetic collection and returns the
// recommender plus the collection for ground truth.
func buildSmall(t testing.TB) (*Recommender, *dataset.Collection) {
	return buildSmallTweaked(t, nil)
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
	r := NewRecommender(DefaultOptions())
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
	r, _ := buildSmall(t)
	id := r.state.orderIDs()[0]
	for _, res := range r.RecommendID(id, 10) {
		if res.VideoID == id {
			t.Fatalf("query video %s recommended to itself", id)
		}
	}
}

func TestRecommendTopKOrderedAndBounded(t *testing.T) {
	r, _ := buildSmall(t)
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
	r, c := buildSmall(t)
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

// CSF-SAR and CSF-SAR-H compute the same s̃J through different user
// dictionaries: the engine's chained hash table must rank exactly as the
// oracle's linear dictionary scan does over the engine's own records and
// partition (the corpus is small enough that no candidate budget binds).
func TestSARModesAgreeOnScores(t *testing.T) {
	r, c := buildSmall(t)
	v := r.Freeze()
	var recs []oracle.Record
	for _, id := range v.SortedIDs() {
		rec, _ := v.Record(id)
		recs = append(recs, oracle.Record{ID: id, Compiled: rec.Compiled, Desc: rec.Desc})
	}
	o := oracle.New(recs, v.Partition(), v.Options().MatchThreshold)
	for _, q := range c.Queries {
		src := q.Sources[0]
		oq, _ := o.Query(src)
		want := o.Rank(oq, v.Options().Omega, oracle.SARDictionary, 10, src)
		got := v.RecommendID(src, 10)
		if len(got) != len(want) {
			t.Fatalf("lengths differ for %s: %d vs %d", src, len(got), len(want))
		}
		for i := range want {
			if got[i] != Result(want[i]) {
				t.Fatalf("%s rank %d: engine %+v, dictionary-scan oracle %+v", src, i, got[i], want[i])
			}
		}
	}
}

// ω = 0 is the CR baseline and ω = 1 the SR baseline: the fused score is
// exactly the one relevance the baseline ranks by.
func TestContentOnlyAndSocialOnly(t *testing.T) {
	o := dataset.DefaultOptions()
	o.Hours = 3
	o.Users = 100
	o.Seed = 5
	c := dataset.Generate(o)

	copts := DefaultOptions()
	copts.Omega = 0
	cr := NewRecommender(copts)
	sopts := DefaultOptions()
	sopts.Omega = 1
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
		if res.Score != res.Content {
			t.Errorf("CR score %g != content %g", res.Score, res.Content)
		}
	}
	for _, res := range sr.RecommendID(src, 5) {
		if res.Score != res.Social {
			t.Errorf("SR score %g != social %g", res.Score, res.Social)
		}
	}
}

func TestApplyUpdatesGrowsDescriptors(t *testing.T) {
	r, c := buildSmall(t)
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
	r, c := buildSmall(t)
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
	r, _ := buildSmall(t)
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
	r, _ := buildSmall(t)
	if res := r.RecommendID(r.state.orderIDs()[0], 0); res != nil {
		t.Errorf("topK=0 returned %v", res)
	}
}

func TestRecommendUnknownID(t *testing.T) {
	r, _ := buildSmall(t)
	if res := r.RecommendID("no-such-video", 5); res != nil {
		t.Errorf("unknown id returned %v", res)
	}
}

func BenchmarkRecommendSARHash(b *testing.B) {
	r, c := buildSmall(b)
	src := c.Queries[0].Sources[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecommendID(src, 10)
	}
}

func BenchmarkBuildSocial(b *testing.B) {
	r, _ := buildSmall(b)
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
