package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"videorec"
	"videorec/internal/dataset"
	"videorec/internal/video"
)

// The golden suite: an N-shard router must return bit-identical rankings to
// a single engine holding the whole corpus — same ids, same fused scores,
// same component relevances — across the fused and baseline weights, serial
// and parallel refinement, and through the whole lifecycle: build, incremental updates,
// remove, re-ingest, and shard drain. The corpus is sized so the per-shard
// candidate budgets never bind (the regime where the scatter-gather merge
// is provably exact; see the package comment).

// fixture is the shared corpus: clips prepared once (signature extraction
// dominates ingest cost) and replayed into every engine and router under
// test, plus the comment timeline the update phases draw from.
type fixture struct {
	clips   []videorec.Clip
	queries []string
	col     *dataset.Collection
}

var fixtures = map[int64]*fixture{}

func loadFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	if f, ok := fixtures[seed]; ok {
		return f
	}
	o := dataset.DefaultOptions()
	o.Hours = 3
	o.Users = 120
	o.Seed = seed
	col := dataset.Generate(o)
	f := &fixture{col: col}
	for _, it := range col.Items {
		v := it.Render(o.Synth)
		var commenters []string
		for _, cm := range it.Comments {
			if cm.Month < o.MonthsSource {
				commenters = append(commenters, cm.User)
			}
		}
		f.clips = append(f.clips, clipFrom(v, it.ID, it.Owner, commenters))
	}
	for _, q := range col.Queries {
		f.queries = append(f.queries, q.Sources...)
	}
	if len(f.queries) > 8 {
		f.queries = f.queries[:8]
	}
	fixtures[seed] = f
	return f
}

func clipFrom(v *video.Video, id, owner string, commenters []string) videorec.Clip {
	c := videorec.Clip{
		ID:             id,
		FPS:            v.FPS,
		NominalSeconds: v.NominalSeconds,
		Owner:          owner,
		Commenters:     commenters,
	}
	for _, f := range v.Frames {
		c.Frames = append(c.Frames, videorec.Frame{W: f.W, H: f.H, Pix: append([]float64(nil), f.Pix...)})
	}
	return c
}

// updateBatch collects the comments of one test-period month, the natural
// incremental-maintenance payload.
func (f *fixture) updateBatch(month int) map[string][]string {
	out := map[string][]string{}
	for _, it := range f.col.Items {
		for _, cm := range it.Comments {
			if cm.Month == month {
				out[it.ID] = append(out[it.ID], cm.User)
			}
		}
	}
	return out
}

func ingestAll(t testing.TB, f *fixture, add func(videorec.Clip) error) {
	t.Helper()
	for _, c := range f.clips {
		if err := add(c); err != nil {
			t.Fatalf("add %s: %v", c.ID, err)
		}
	}
}

// requireSameRankings asserts every sampled query ranks identically on the
// reference engine and the router — exact float equality, not tolerance:
// the claim is bit-identity.
func requireSameRankings(t *testing.T, phase string, ref *videorec.Engine, r *Router, queries []string, skip map[string]bool) {
	t.Helper()
	ctx := context.Background()
	for _, id := range queries {
		if skip[id] {
			continue
		}
		want, wantMeta, err1 := ref.RecommendCtx(ctx, id, 10)
		got, gotMeta, err2 := r.RecommendCtx(ctx, id, 10)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: query %s: reference err %v, router err %v", phase, id, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if wantMeta.Degraded || gotMeta.Degraded {
			t.Fatalf("%s: query %s degraded without a deadline", phase, id)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: query %s: reference returned %d results, router %d\nref: %v\ngot: %v",
				phase, id, len(want), len(got), want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: query %s: rank %d differs\nref: %+v\ngot: %+v",
					phase, id, i, want[i], got[i])
			}
		}
	}
}

func shardCounts(short bool) []int {
	if short {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 16}
}

// variants are the engine configurations the goldens run under: the fused
// default and the CR (ω = 0) and SR (ω = 1) baselines.
var variants = []struct {
	name string
	opts videorec.Options
}{
	{"sarhash", videorec.Options{}},
	{"content-only", videorec.Options{ContentOnly: true}},
	{"social-only", videorec.Options{SocialOnly: true}},
}

func TestShardGolden(t *testing.T) {
	f := loadFixture(t, 21)
	for _, vr := range variants {
		vr := vr
		t.Run(vr.name, func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				if workers == 0 && testing.Short() {
					continue
				}
				workers := workers
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					refOpts := vr.opts
					refOpts.RefineWorkers = workers
					for _, n := range shardCounts(testing.Short()) {
						n := n
						t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
							runGoldenLifecycle(t, f, refOpts, n)
						})
					}
				})
			}
		})
	}
}

// runGoldenLifecycle drives one router through build → update → remove →
// re-ingest → update → drain → update, comparing rankings against a
// reference engine taken through the same mutations (except the drain,
// which must not change rankings at all — the reference doubles as the
// from-scratch build the post-drain state must match).
func runGoldenLifecycle(t *testing.T, f *fixture, opts videorec.Options, n int) {
	ref := videorec.New(opts)
	ingestAll(t, f, ref.Add)
	ref.Build()

	r, err := New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	r.Build()

	if got, want := r.Len(), ref.Len(); got != want {
		t.Fatalf("router holds %d videos, reference %d", got, want)
	}
	requireSameRankings(t, "build", ref, r, f.queries, nil)

	src := f.col.Opts.MonthsSource
	batch1 := f.updateBatch(src)
	if _, err := ref.ApplyUpdates(batch1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyUpdates(batch1); err != nil {
		t.Fatal(err)
	}
	requireSameRankings(t, "update1", ref, r, f.queries, nil)

	// Remove a non-query video, compare, then re-ingest it and rebuild.
	victim := ""
	isQuery := map[string]bool{}
	for _, q := range f.queries {
		isQuery[q] = true
	}
	var victimClip videorec.Clip
	for _, c := range f.clips {
		if !isQuery[c.ID] {
			victim, victimClip = c.ID, c
			break
		}
	}
	if err := ref.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(victim); err != nil {
		t.Fatal(err)
	}
	requireSameRankings(t, "remove", ref, r, f.queries, nil)

	if err := ref.Add(victimClip); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(victimClip); err != nil {
		t.Fatal(err)
	}
	ref.Build()
	r.Build()
	requireSameRankings(t, "re-ingest", ref, r, f.queries, nil)

	batch2 := f.updateBatch(src + 1)
	if _, err := ref.ApplyUpdates(batch2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyUpdates(batch2); err != nil {
		t.Fatal(err)
	}
	requireSameRankings(t, "update2", ref, r, f.queries, nil)

	if n > 1 {
		// Drain the middle shard: the corpus is unchanged, so rankings must
		// still match the reference — which never drained anything and is
		// therefore exactly the from-scratch build of the same corpus.
		moved, err := r.DrainShard(n / 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumShards() != n-1 {
			t.Fatalf("after drain: %d shards, want %d", r.NumShards(), n-1)
		}
		if got, want := r.Len(), ref.Len(); got != want {
			t.Fatalf("after drain moved=%d: router holds %d videos, reference %d", moved, got, want)
		}
		requireSameRankings(t, "drain", ref, r, f.queries, nil)

		batch3 := f.updateBatch(src + 2)
		if _, err := ref.ApplyUpdates(batch3); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ApplyUpdates(batch3); err != nil {
			t.Fatal(err)
		}
		requireSameRankings(t, "update3", ref, r, f.queries, nil)
	}
}

// TestShardGoldenAdHoc pins the ad-hoc (clip not in the collection) path:
// the query is assembled once and fanned out, and the merged ranking must
// match the single-engine answer exactly.
func TestShardGoldenAdHoc(t *testing.T) {
	f := loadFixture(t, 21)
	opts := videorec.Options{}
	ref := videorec.New(opts)
	ingestAll(t, f, ref.Add)
	ref.Build()
	for _, n := range shardCounts(testing.Short()) {
		r, err := New(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, f, r.Add)
		r.Build()
		probe := f.clips[len(f.clips)/2]
		probe.ID = "ad-hoc-probe"
		want, _, err1 := ref.RecommendClipCtx(context.Background(), probe, 10)
		got, _, err2 := r.RecommendClipCtx(context.Background(), probe, 10)
		if err1 != nil || err2 != nil {
			t.Fatalf("shards=%d: errors %v / %v", n, err1, err2)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: rank %d differs\nref: %+v\ngot: %+v", n, i, want[i], got[i])
			}
		}
	}
}

// TestShardDrainFromScratch pins the ISSUE's drain guarantee in its
// strongest form: drain a freshly built deployment (no incremental updates
// yet) and the rankings must match a from-scratch single-engine build of
// the same corpus — relocation changes placement, never scores.
func TestShardDrainFromScratch(t *testing.T) {
	f := loadFixture(t, 21)
	scratch := videorec.New(videorec.Options{})
	ingestAll(t, f, scratch.Add)
	scratch.Build()
	for _, n := range []int{2, 4} {
		r, err := New(n, videorec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, f, r.Add)
		r.Build()
		if _, err := r.DrainShard(n - 1); err != nil {
			t.Fatal(err)
		}
		requireSameRankings(t, fmt.Sprintf("from-scratch drain n=%d", n), scratch, r, f.queries, nil)
	}
}

func TestRouterErrors(t *testing.T) {
	if _, err := New(0, videorec.Options{}); !errors.Is(err, ErrNoShards) {
		t.Errorf("New(0): %v", err)
	}
	r, err := New(2, videorec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RecommendCtx(context.Background(), "x", 5); !errors.Is(err, videorec.ErrNotBuilt) {
		t.Errorf("before Build: %v", err)
	}
	f := loadFixture(t, 21)
	ingestAll(t, f, r.Add)
	r.Build()
	if _, _, err := r.RecommendCtx(context.Background(), "no-such", 5); !errors.Is(err, videorec.ErrNotFound) {
		t.Errorf("unknown id: %v", err)
	}
	if err := r.Remove("no-such"); !errors.Is(err, videorec.ErrNotFound) {
		t.Errorf("remove unknown: %v", err)
	}
	if _, err := r.DrainShard(5); err == nil {
		t.Error("drain of out-of-range shard succeeded")
	}
	if _, err := r.DrainShard(0); err != nil {
		t.Fatalf("drain shard 0: %v", err)
	}
	if _, err := r.DrainShard(0); !errors.Is(err, ErrLastShard) {
		t.Errorf("drain last shard: %v", err)
	}
}

func TestRouterVersionFingerprint(t *testing.T) {
	f := loadFixture(t, 21)
	r, err := New(4, videorec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	r.Build()
	v1 := r.Version()
	if _, err := r.ApplyUpdates(f.updateBatch(f.col.Opts.MonthsSource)); err != nil {
		t.Fatal(err)
	}
	v2 := r.Version()
	if v1 == v2 {
		t.Error("fingerprint unchanged across an update")
	}
	if _, err := r.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	if v3 := r.Version(); v3 == v2 {
		t.Error("fingerprint unchanged across a drain")
	}
}

// RecommendBatchCtx is RecommendCtx in a loop on both backends: every answer
// — results, meta and error — equals the serial call's, an unknown id fails
// only its own answer (wrapping ErrNotFound), and a batch context that is
// already done fails every answer with its error.
func TestRecommendBatchCtxMatchesRecommendCtx(t *testing.T) {
	f := loadFixture(t, 21)
	type backend interface {
		RecommendCtx(context.Context, string, int) ([]videorec.Recommendation, videorec.RecommendMeta, error)
		RecommendBatchCtx(context.Context, []videorec.BatchRequest) []videorec.BatchAnswer
	}
	reqs := []videorec.BatchRequest{{ClipID: "no-such-clip", TopK: 10}}
	for _, id := range f.queries {
		reqs = append(reqs, videorec.BatchRequest{ClipID: id, TopK: 10})
	}
	reqs = append(reqs, videorec.BatchRequest{ClipID: f.queries[0], TopK: 3})
	for name, be := range map[string]backend{
		"engine":   buildRef(t, f, videorec.Options{}),
		"router/4": buildRouter(t, f, 4, videorec.Options{}),
	} {
		answers := be.RecommendBatchCtx(context.Background(), reqs)
		if len(answers) != len(reqs) {
			t.Fatalf("%s: %d answers for %d requests", name, len(answers), len(reqs))
		}
		for i, req := range reqs {
			want, wantMeta, wantErr := be.RecommendCtx(context.Background(), req.ClipID, req.TopK)
			a := answers[i]
			if fmt.Sprint(a.Err) != fmt.Sprint(wantErr) || a.Meta != wantMeta || len(a.Results) != len(want) {
				t.Fatalf("%s: request %d (%s, k=%d): answer (%d results, %+v, %v), serial (%d results, %+v, %v)",
					name, i, req.ClipID, req.TopK, len(a.Results), a.Meta, a.Err, len(want), wantMeta, wantErr)
			}
			for r := range want {
				if a.Results[r] != want[r] {
					t.Fatalf("%s: request %d rank %d: %+v, serial %+v", name, i, r, a.Results[r], want[r])
				}
			}
		}
		if !errors.Is(answers[0].Err, videorec.ErrNotFound) {
			t.Fatalf("%s: unknown id: err %v, want ErrNotFound", name, answers[0].Err)
		}

		done, cancel := context.WithCancel(context.Background())
		cancel()
		for i, a := range be.RecommendBatchCtx(done, reqs[1:]) {
			if !errors.Is(a.Err, context.Canceled) || a.Results != nil {
				t.Fatalf("%s: request %d under a done context: %d results, err %v", name, i, len(a.Results), a.Err)
			}
		}
	}
}
