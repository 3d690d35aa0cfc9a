package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// journalFixtureDir holds the four shard journals journalHistory writes,
// as the implementation that journaled every shard's edge list separately
// wrote them. The journal line format is the replication wire format, so
// its bytes are pinned, not just its decoded content.
const journalFixtureDir = "../store/testdata/shardjournal"

// journalNames are the users of journalHistory: names the JSON encoder
// escapes (<, &, ", \, U+2028) and non-ASCII ones, beside plain ones.
var journalNames = []string{"ann", "ben<b>", "cal&co", `dee"q`, `eve\x`, "fay\u2028g", "gus", "hélène", "ivo", "日本", "kit", "lou"}

// journalHistory runs a short seeded history through a 4-shard router with
// journals attached under dir: sixteen prepared clips, a build, and five
// comment batches — one ordinary, one on an unknown clip only (no entry
// anywhere), one on a single clip (edge-only entries on the other shards),
// one that forces a union, one with empty and repeated commenters. It
// returns the router with its journals closed.
func journalHistory(t testing.TB, dir string) *Router {
	t.Helper()
	r, err := New(4, videorec.Options{SubCommunities: 3, RefineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		var series signature.Series
		for s := 0; s < 2; s++ {
			sig := signature.Signature{Cuboids: make([]signature.Cuboid, 4)}
			for c := range sig.Cuboids {
				sig.Cuboids[c] = signature.Cuboid{V: 10 * rng.NormFloat64(), Mu: 0.25}
			}
			series = append(series, sig)
		}
		audience := make([]string, 4)
		for j := range audience {
			audience[j] = journalNames[(i%3)*4+rng.Intn(4)]
		}
		p := videorec.PreparedClip{ID: fmt.Sprintf("clip-%02d", i), Series: series, Desc: social.NewDescriptor("", audience...)}
		if err := r.AddPrepared(p); err != nil {
			t.Fatal(err)
		}
	}
	r.Build()
	if err := r.AttachJournals(filepath.Join(dir, "journal")); err != nil {
		t.Fatal(err)
	}
	pick := func() string { return journalNames[rng.Intn(len(journalNames))] }
	batches := []map[string][]string{
		{"clip-01": {pick(), "new-1", "ben<b>"}, "clip-06": {pick(), `eve\x`}, "clip-11": {pick(), "cal&co"}, "clip-14": {"new-2", pick(), "fay\u2028g"}},
		{"no-such-clip": {pick(), pick()}},
		{"clip-03": {pick(), "new-3"}},
		{},
		{"clip-00": {"", pick(), pick()}, "clip-09": {}, "clip-12": {"new-4", "new-4", pick()}},
	}
	for _, id := range []string{"clip-02", "clip-05", "clip-07", "clip-10", "clip-13", "clip-15"} {
		batches[3][id] = []string{"ann", "kit"} // fandoms 0 and 2
	}
	for i, b := range batches {
		if _, err := r.ApplyUpdates(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := r.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return r
}

// The router journals the edge list it derives and encodes once per batch;
// every shard's journal must hold exactly the bytes the per-shard
// implementation wrote for the same history.
func TestShardJournalsMatchFixture(t *testing.T) {
	dir := t.TempDir()
	journalHistory(t, dir)
	for i := 0; i < 4; i++ {
		name := filepath.Base(ShardPath("journal", i))
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(journalFixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the fixture\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// trimZeros drops a SAR vector's trailing zero dimensions: a vector built
// before a split minted a dimension is one shorter than its rebuilt twin and
// scores identically.
func trimZeros(v []float64) []float64 {
	for len(v) > 0 && v[len(v)-1] == 0 {
		v = v[:len(v)-1]
	}
	return v
}

// requireSameSocial asserts that every shard's published view holds the
// reference engine's partition and, for every record it stores, the
// engine's descriptor and SAR vector — and that the shards together store
// exactly the engine's records.
func requireSameSocial(t *testing.T, phase string, ref *videorec.Engine, r *Router) {
	t.Helper()
	refView, _ := ref.CurrentView()
	want := refView.Partition()
	wantAssign := want.AssignMap()
	var ids []string
	for i, e := range r.set().engines {
		v, _ := e.CurrentView()
		p := v.Partition()
		if p.Dim != want.Dim || !reflect.DeepEqual(p.AssignMap(), wantAssign) {
			t.Fatalf("%s: shard %d partition (dim %d) differs from the single engine's (dim %d)", phase, i, p.Dim, want.Dim)
		}
		for _, id := range v.SortedIDs() {
			got, _ := v.Record(id)
			exp, ok := refView.Record(id)
			if !ok {
				t.Fatalf("%s: shard %d stores %s, the single engine does not", phase, i, id)
			}
			if !slices.Equal(got.Desc.Users(), exp.Desc.Users()) || !slices.Equal(trimZeros(got.Vec), trimZeros(exp.Vec)) {
				t.Fatalf("%s: shard %d record %s: vec %v users %v, single engine %v %v",
					phase, i, id, got.Vec, got.Desc.Users(), exp.Vec, exp.Desc.Users())
			}
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if !slices.Equal(ids, refView.SortedIDs()) {
		t.Fatalf("%s: shards store %d records, the single engine %d", phase, len(ids), len(refView.SortedIDs()))
	}
}

// One social state, maintained once per batch, must keep every shard in
// lockstep with a single engine over a whole lifecycle: quiet batches, a
// forced union and split, remove, re-ingest, drain, a grown topology, and a
// restart from snapshots plus standalone journal replay. After every step
// each shard's partition and record vectors, the update summaries and the
// rankings equal the single engine's.
func TestSharedStateLockstepWithSingleEngine(t *testing.T) {
	f := loadFixture(t, 21)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { runLockstep(t, f, n) })
	}
}

func runLockstep(t *testing.T, f *fixture, n int) {
	opts := videorec.Options{RefineWorkers: 1}
	ref := videorec.New(opts)
	ingestAll(t, f, ref.Add)
	ref.Build()
	r, err := New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	r.Build()

	check := func(phase string, skip map[string]bool) {
		t.Helper()
		requireSameSocial(t, phase, ref, r)
		requireSameRankings(t, phase, ref, r, f.queries, skip)
	}
	apply := func(phase string, batch map[string][]string) videorec.UpdateSummary {
		t.Helper()
		want, err := ref.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		// Wall time varies, and a graph restored from a snapshot splits its
		// edges between CSR base and overlay differently.
		got.MaintenanceDuration, want.MaintenanceDuration = 0, 0
		got.GraphOverlay, want.GraphOverlay = 0, 0
		if got != want {
			t.Fatalf("%s: router summary %+v, single engine %+v", phase, got, want)
		}
		check(phase, nil)
		return got
	}
	check("build", nil)
	src := f.col.Opts.MonthsSource
	apply("quiet", f.updateBatch(src))
	refView, _ := ref.CurrentView()
	if sum := apply("forced union", forcedUnionBatch(f, refView.Partition().AssignMap())); sum.Unions == 0 || sum.Splits == 0 {
		t.Fatalf("forced batch made %d unions and %d splits; the history needs both", sum.Unions, sum.Splits)
	}

	isQuery := map[string]bool{}
	for _, q := range f.queries {
		isQuery[q] = true
	}
	var victim videorec.Clip
	for _, c := range f.clips {
		if !isQuery[c.ID] {
			victim = c
			break
		}
	}
	for _, remove := range []func(string) error{ref.Remove, r.Remove} {
		if err := remove(victim.ID); err != nil {
			t.Fatal(err)
		}
	}
	check("remove", nil)
	for _, add := range []func(videorec.Clip) error{ref.Add, r.Add} {
		if err := add(victim); err != nil {
			t.Fatal(err)
		}
	}
	ref.Build()
	r.Build()
	check("re-ingest", nil)
	apply("update", f.updateBatch(src+1))

	if n > 1 {
		if _, err := r.DrainShard(n / 2); err != nil {
			t.Fatal(err)
		}
		check("drain", nil)
		apply("post-drain", f.updateBatch(src+2))
	}
	r.AddShard(opts)
	ref.Build()
	check("add shard", nil)
	apply("post-add", f.updateBatch(src))

	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "deploy.snap"), filepath.Join(dir, "deploy.wal")
	if err := r.AttachJournals(wal); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	apply("journaled", f.updateBatch(src+1))
	refView, _ = ref.CurrentView()
	apply("journaled union", forcedUnionBatch(f, refView.Partition().AssignMap()))
	if err := r.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	if r, err = LoadFile(snap); err != nil {
		t.Fatal(err)
	}
	if replayed, err := r.ReplayJournals(wal); err != nil || replayed == 0 {
		t.Fatalf("replay: %d batches, %v", replayed, err)
	}
	if err := r.AttachJournals(wal); err != nil {
		t.Fatal(err)
	}
	check("restored", nil)
	apply("post-restore", f.updateBatch(src+2))
}

// viewState is what a reader observes through one shard's view: the
// partition, every stored record's descriptor and vector, and full answers
// to fixed queries.
type viewState struct {
	Dim     int
	Assign  map[string]int
	Users   map[string][]string
	Vecs    map[string][]float64
	Answers map[string][]core.Result
}

func captureView(t *testing.T, v *core.View, queries map[string]core.Query) viewState {
	t.Helper()
	st := viewState{
		Dim:     v.Partition().Dim,
		Assign:  v.Partition().AssignMap(),
		Users:   map[string][]string{},
		Vecs:    map[string][]float64{},
		Answers: map[string][]core.Result{},
	}
	for _, id := range v.SortedIDs() {
		rec, _ := v.Record(id)
		st.Users[id] = slices.Clone(rec.Desc.Users())
		st.Vecs[id] = slices.Clone(rec.Vec)
	}
	for id, q := range queries {
		res, _, err := v.RecommendCtx(context.Background(), q, 10, id)
		if err != nil {
			t.Fatal(err)
		}
		st.Answers[id] = res
	}
	return st
}

// TestFrozenViewIsolatedFromMutations lifted to the router: a follower
// shard's view published at generation g answers exactly as it did at g
// after later batches maintain the shared social state (with new users, a
// union and splits), a remove and re-ingest with a rebuild, and a drain —
// every pass copies what the published views share before changing it.
// Readers query the first generation throughout, so under -race a write
// into anything it shares is reported.
func TestSharedFollowerViewIsolated(t *testing.T) {
	f := loadFixture(t, 21)
	r, err := New(4, videorec.Options{RefineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	r.Build()

	type generation struct {
		view    *core.View
		queries map[string]core.Query
		want    viewState
	}
	var gens []generation
	publish := func() {
		queries := map[string]core.Query{}
		for _, id := range f.queries {
			for _, e := range r.set().engines {
				if v, _ := e.CurrentView(); v.Has(id) {
					queries[id], _ = v.QueryFor(id)
				}
			}
		}
		follower, _ := r.set().engines[1].CurrentView()
		gens = append(gens, generation{follower, queries, captureView(t, follower, queries)})
	}
	check := func(after string) {
		t.Helper()
		for g, gen := range gens {
			if got := captureView(t, gen.view, gen.queries); !reflect.DeepEqual(got, gen.want) {
				t.Fatalf("after %s: follower view of generation %d changed", after, g)
			}
		}
	}
	apply := func(batch map[string][]string) videorec.UpdateSummary {
		t.Helper()
		sum, err := r.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}

	publish()
	first := gens[0]
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id, q := range first.queries {
					got, _, err := first.view.RecommendCtx(context.Background(), q, 10, id)
					if err != nil || !reflect.DeepEqual(got, first.want.Answers[id]) {
						t.Errorf("follower view's answer for %s changed under the writer (err %v)", id, err)
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	src := f.col.Opts.MonthsSource
	batch := f.updateBatch(src)
	batch[f.clips[0].ID] = append(batch[f.clips[0].ID], "isolation-newcomer", f.clips[1].Owner)
	apply(batch)
	check("a quiet batch")
	publish()
	lead, _ := r.set().engines[0].CurrentView()
	if sum := apply(forcedUnionBatch(f, lead.Partition().AssignMap())); sum.Unions == 0 || sum.Splits == 0 {
		t.Fatalf("forced batch made %d unions and %d splits", sum.Unions, sum.Splits)
	}
	check("a union and splits")
	publish()
	victim := f.clips[len(f.clips)-1]
	if err := r.Remove(victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(victim); err != nil {
		t.Fatal(err)
	}
	r.Build()
	check("remove, re-ingest and rebuild")
	publish()
	apply(f.updateBatch(src + 1))
	if _, err := r.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	apply(f.updateBatch(src + 2))
	check("a drain and more batches")
}

// Restored shards replay their journals standalone and share one social
// state only afterwards, so no batch is maintained more than once: a second
// replay finds nothing left to apply, a router whose shards already share
// refuses a journal with batches left rather than maintaining each once per
// shard, and shards whose restored copies diverge fail the first update
// loudly and stay untouched.
func TestSharedStateReplayNeverDoubleApplies(t *testing.T) {
	f := loadFixture(t, 21)
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "deploy.snap"), filepath.Join(dir, "deploy.wal")
	live, err := New(4, videorec.Options{RefineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, live.Add)
	live.Build()
	if err := live.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if err := live.AttachJournals(wal); err != nil {
		t.Fatal(err)
	}
	src := f.col.Opts.MonthsSource
	lead, _ := live.set().engines[0].CurrentView()
	for _, b := range []map[string][]string{f.updateBatch(src), forcedUnionBatch(f, lead.Partition().AssignMap()), f.updateBatch(src + 1)} {
		if _, err := live.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	load := func() *Router {
		t.Helper()
		r, err := LoadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	restored := load()
	if n, err := restored.ReplayJournals(wal); err != nil || n == 0 {
		t.Fatalf("replay: %d batches, %v", n, err)
	}
	for i, e := range restored.set().engines {
		got, _ := e.CurrentView()
		want, _ := live.set().engines[i].CurrentView()
		if !reflect.DeepEqual(got.Partition().AssignMap(), want.Partition().AssignMap()) {
			t.Fatalf("shard %d partition after replay differs from the live router's", i)
		}
	}
	for _, id := range f.queries {
		want, _, err1 := live.RecommendCtx(context.Background(), id, 10)
		got, _, err2 := restored.RecommendCtx(context.Background(), id, 10)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("query %s after replay: %v (%v), live %v (%v)", id, got, err2, want, err1)
		}
	}
	if n, err := restored.ReplayJournals(wal); err != nil || n != 0 {
		t.Fatalf("second replay: %d batches, %v; want nothing left to apply", n, err)
	}

	shared := load()
	if _, err := shared.ReplayJournals(filepath.Join(dir, "absent.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := shared.ReplayJournals(wal); !errors.Is(err, videorec.ErrSharedSocial) {
		t.Fatalf("replay into shards that share: %v, want ErrSharedSocial", err)
	}

	diverged := load()
	e0, _ := diverged.ShardEngine(0)
	if _, err := e0.ReplayJournal(ShardPath(wal, 0)); err != nil {
		t.Fatal(err)
	}
	version := diverged.Version()
	if _, err := diverged.ApplyUpdates(f.updateBatch(src + 2)); err == nil {
		t.Fatal("update over shards with diverging social state succeeded")
	}
	if diverged.Version() != version {
		t.Fatal("refused update still published")
	}
}

// DrainShard's survivors reindex around the social state they share rather
// than rebuilding it: the partition object is the one the pass maintained,
// and the drained router still matches the engine that never drained.
func TestSharedStateSurvivesDrain(t *testing.T) {
	f := loadFixture(t, 21)
	opts := videorec.Options{RefineWorkers: 1}
	ref := videorec.New(opts)
	ingestAll(t, f, ref.Add)
	ref.Build()
	r, err := New(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	r.Build()
	refView, _ := ref.CurrentView()
	batch := forcedUnionBatch(f, refView.Partition().AssignMap())
	if _, err := ref.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if sum, err := r.ApplyUpdates(batch); err != nil || sum.Splits == 0 {
		t.Fatalf("forced batch: %+v, %v; the test needs a split", sum, err)
	}
	before, _ := r.set().engines[0].CurrentView()
	if _, err := r.DrainShard(2); err != nil {
		t.Fatal(err)
	}
	for i, e := range r.set().engines {
		if v, _ := e.CurrentView(); v.Partition() != before.Partition() {
			t.Fatalf("survivor %d reindexed against a rebuilt partition", i)
		}
	}
	requireSameSocial(t, "drain", ref, r)
	requireSameRankings(t, "drain", ref, r, f.queries, nil)
}

// A clip frame whose W·H overflows int must come back from the router's add
// as an error, not a panic in frame construction.
func TestRouterAddRejectsOverflowingFrame(t *testing.T) {
	r, err := New(2, videorec.Options{RefineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	huge := videorec.Clip{ID: "huge", Frames: []videorec.Frame{{W: math.MaxInt/2 + 1, H: 4}}}
	if err := r.Add(huge); err == nil {
		t.Fatal("router accepted a frame whose W·H overflows")
	}
	if r.Len() != 0 {
		t.Errorf("router holds %d clips after a rejected add", r.Len())
	}
}
