package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"videorec"
	"videorec/internal/community"
	"videorec/internal/core"
)

// TestUpdateGoldenFile pins the observable behavior of the user-interest
// graph write path — partitions, update summaries, recommendation rankings,
// and the edge lists that reach the journal wire format — against a
// checked-in golden file. TestShardGolden proves router ≡ single engine at
// one point in time; this test additionally proves the CURRENT
// implementation ≡ the implementation that generated the file, so a graph
// rewrite (e.g. the map-adjacency → CSR move) can demonstrate bit-identity
// across releases, not just across shard counts.
//
// Everything hashed here is exact: float64 score and weight bits go into
// the hashes via math.Float64bits, so a single ULP of drift anywhere in
// derive → sum → maintain → re-vectorize → rank fails the test.
//
// Regenerate (only when an intentional behavior change is being made):
//
//	REGEN_PR10_GOLDEN=1 go test ./internal/shard/ -run UpdateGoldenFile
const pr10GoldenPath = "testdata/pr10_updates.json"

type pr10Summary struct {
	NewConnections     int `json:"newConnections"`
	Unions             int `json:"unions"`
	Splits             int `json:"splits"`
	UsersMoved         int `json:"usersMoved"`
	VideosRevectorized int `json:"videosRevectorized"`
}

type pr10Step struct {
	Op        string       `json:"op"`
	Summary   *pr10Summary `json:"summary,omitempty"`
	Dim       int          `json:"dim"`
	Partition string       `json:"partition"`          // fnv64a over the sorted assignment + K/Dim/w bits
	Edges     string       `json:"edges,omitempty"`    // fnv64a over the globally summed edge list (journal payload)
	Rankings  []string     `json:"rankings,omitempty"` // per probe query: "id:fnv64a(results)"
}

type pr10Golden struct {
	Scenarios map[string][]pr10Step `json:"scenarios"`
	Journals  map[string]string     `json:"journals"` // shard journal file → fnv64a of its bytes
}

// pr10AssignMap extracts the partition's user → sub-community assignment as
// a plain map. Isolated in one helper so a partition-representation change
// only touches this line while the golden hashes stay byte-identical.
func pr10AssignMap(p *community.Partition) map[string]int {
	return p.AssignMap()
}

func pr10Partition(e *videorec.Engine) *community.Partition {
	view, _ := e.CurrentView()
	return view.Partition()
}

func pr10PartitionHash(e *videorec.Engine) string {
	p := pr10Partition(e)
	if p == nil {
		return "unbuilt"
	}
	assign := pr10AssignMap(p)
	users := make([]string, 0, len(assign))
	for u := range assign {
		users = append(users, u)
	}
	sort.Strings(users)
	h := fnv.New64a()
	fmt.Fprintf(h, "K=%d Dim=%d w=%016x\n", p.K, p.Dim, math.Float64bits(p.LightestIntra))
	for _, u := range users {
		fmt.Fprintf(h, "%s=%d\n", u, assign[u])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func pr10EdgesHash(edges []community.Edge) string {
	h := fnv.New64a()
	for _, e := range edges {
		fmt.Fprintf(h, "%s|%s|%016x\n", e.U, e.V, math.Float64bits(e.W))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func pr10Rankings(t *testing.T, r *Router, queries []string, skip map[string]bool) []string {
	t.Helper()
	out := make([]string, 0, len(queries))
	for _, id := range queries {
		if skip[id] {
			continue
		}
		res, _, err := r.RecommendCtx(context.Background(), id, 10)
		if err != nil {
			t.Fatalf("recommend %s: %v", id, err)
		}
		h := fnv.New64a()
		for _, r := range res {
			fmt.Fprintf(h, "%s:%016x:%016x:%016x\n", r.VideoID,
				math.Float64bits(r.Score), math.Float64bits(r.Content), math.Float64bits(r.Social))
		}
		out = append(out, fmt.Sprintf("%s:%016x", id, h.Sum64()))
	}
	return out
}

// pr10DeriveGlobal reproduces the derivation half of Router.ApplyUpdates
// without mutating anything: the edge list every shard is about to journal
// and the shared state to maintain. Derivation is a pure read of the owners'
// records, so hashing it before the apply observes exactly what the apply
// will use.
func pr10DeriveGlobal(r *Router, batch map[string][]string) []community.Edge {
	s := r.set()
	view, _ := s.engines[0].CurrentView()
	return core.NewRecommender(view.Options()).DeriveFrom(batch, func(id string) *core.Record {
		if i := s.owner(id); i >= 0 {
			v, _ := s.engines[i].CurrentView()
			rec, _ := v.Record(id)
			return rec
		}
		return nil
	})
}

// forcedUnionBatch pins steps 2–3 of the maintenance algorithm (union +
// compensating split), which the organic monthly batches never reach: they
// carry no single edge heavier than the extraction-time lightest
// intra-community weight. It picks pairs of users from different
// sub-communities of assign and has each pair co-comment on a block of
// videos, giving the derived batch edge a weight equal to the block size —
// far above the union threshold.
func forcedUnionBatch(f *fixture, assign map[string]int) map[string][]string {
	users := make([]string, 0, len(assign))
	for u := range assign {
		users = append(users, u)
	}
	sort.Strings(users)
	batch := map[string][]string{}
	vi := 0
	for pair := 0; pair < 3 && vi+8 <= len(f.clips); pair++ {
		uA := users[pair*7%len(users)]
		uB := ""
		for _, u := range users {
			if assign[u] != assign[uA] {
				uB = u
				break
			}
		}
		if uB == "" {
			break
		}
		for j := 0; j < 8; j++ {
			id := f.clips[vi].ID
			batch[id] = append(batch[id], uA, uB)
			vi++
		}
	}
	return batch
}

func pr10Scenario(t *testing.T, f *fixture, n int, journalDir string) ([]pr10Step, map[string]string) {
	t.Helper()
	r, err := New(n, videorec.Options{RefineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	if journalDir != "" {
		if err := r.AttachJournals(filepath.Join(journalDir, "journal")); err != nil {
			t.Fatal(err)
		}
	}
	r.Build()

	queries := f.queries
	if len(queries) > 4 {
		queries = queries[:4]
	}
	isQuery := map[string]bool{}
	for _, q := range queries {
		isQuery[q] = true
	}
	shard0 := func() *videorec.Engine { return r.set().engines[0] }

	var steps []pr10Step
	record := func(op string, sum *pr10Summary, edges string, skip map[string]bool) {
		steps = append(steps, pr10Step{
			Op:        op,
			Summary:   sum,
			Dim:       r.SubCommunities(),
			Partition: pr10PartitionHash(shard0()),
			Edges:     edges,
			Rankings:  pr10Rankings(t, r, queries, skip),
		})
	}
	record("build", nil, "", nil)

	applyBatch := func(op string, batch map[string][]string) {
		edges := pr10DeriveGlobal(r, batch)
		sum, err := r.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		record(op, &pr10Summary{
			NewConnections:     sum.NewConnections,
			Unions:             sum.Unions,
			Splits:             sum.Splits,
			UsersMoved:         sum.UsersMoved,
			VideosRevectorized: sum.VideosRevectorized,
		}, pr10EdgesHash(edges), nil)
	}
	apply := func(op string, month int) { applyBatch(op, f.updateBatch(month)) }

	src := f.col.Opts.MonthsSource
	apply("update1", src)

	// Remove a non-query clip, then re-ingest it and rebuild — the partition
	// must survive the removal and the rebuild must reproduce the
	// from-scratch extraction.
	var victim videorec.Clip
	for _, c := range f.clips {
		if !isQuery[c.ID] {
			victim = c
			break
		}
	}
	if err := r.Remove(victim.ID); err != nil {
		t.Fatal(err)
	}
	record("remove", nil, "", map[string]bool{victim.ID: true})
	if err := r.Add(victim); err != nil {
		t.Fatal(err)
	}
	r.Build()
	record("re-ingest", nil, "", nil)

	apply("update2", src+1)
	apply("update3", src+2)

	applyBatch("forced-union", forcedUnionBatch(f, pr10AssignMap(pr10Partition(shard0()))))
	apply("post-union", src)

	journals := map[string]string{}
	if journalDir != "" {
		if err := r.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(journalDir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			journals[filepath.Base(path)] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	return steps, journals
}

func TestUpdateGoldenFile(t *testing.T) {
	f := loadFixture(t, 21)
	got := pr10Golden{Scenarios: map[string][]pr10Step{}, Journals: map[string]string{}}
	for _, n := range []int{1, 4} {
		key := fmt.Sprintf("sarhash/shards=%d", n)
		// The 4-shard run doubles as the journal-bytes pin: every shard
		// journals the globally summed edge list in the v3 wire format, and
		// the file hashes must not move under a graph rewrite.
		dir := ""
		if n == 4 {
			dir = t.TempDir()
		}
		steps, journals := pr10Scenario(t, f, n, dir)
		got.Scenarios[key] = steps
		for name, h := range journals {
			got.Journals[name] = h
		}
	}

	if os.Getenv("REGEN_PR10_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(pr10GoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pr10GoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", pr10GoldenPath)
		return
	}

	data, err := os.ReadFile(pr10GoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with REGEN_PR10_GOLDEN=1 to generate): %v", err)
	}
	var want pr10Golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, wantSteps := range want.Scenarios {
		gotSteps := got.Scenarios[key]
		if len(gotSteps) != len(wantSteps) {
			t.Fatalf("%s: %d steps, want %d", key, len(gotSteps), len(wantSteps))
		}
		for i, ws := range wantSteps {
			gs := gotSteps[i]
			wj, _ := json.Marshal(ws)
			gj, _ := json.Marshal(gs)
			if string(wj) != string(gj) {
				t.Errorf("%s step %d (%s) diverged\n got: %s\nwant: %s", key, i, ws.Op, gj, wj)
			}
		}
	}
	for name, wantHash := range want.Journals {
		if got.Journals[name] != wantHash {
			t.Errorf("journal %s hash = %s, want %s (wire bytes changed!)", name, got.Journals[name], wantHash)
		}
	}
	if len(got.Scenarios) != len(want.Scenarios) || len(got.Journals) != len(want.Journals) {
		t.Errorf("scenario/journal count mismatch: got %d/%d, want %d/%d",
			len(got.Scenarios), len(got.Journals), len(want.Scenarios), len(want.Journals))
	}
}
