package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"videorec"
	"videorec/internal/shard"
)

// The server is backend-agnostic: the same handlers serve a single engine or
// a sharded router. These tests pin the shard-aware surface — the per-shard
// /stats breakdown, the drain endpoint, and the shard-addressed replication
// parameters.

func newShardedServer(t testing.TB, n int) (*httptest.Server, *shard.Router) {
	t.Helper()
	router, err := shard.New(n, videorec.Options{SubCommunities: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(router, "")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, router
}

func TestStatsPerShardBreakdown(t *testing.T) {
	ts, _ := newShardedServer(t, 4)
	populate(t, ts)

	st := getStats(t, ts)
	if len(st.Shards) != 4 {
		t.Fatalf("stats reported %d shards, want 4", len(st.Shards))
	}
	sum := 0
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Errorf("shard entry %d labelled %d", i, sh.Shard)
		}
		sum += sh.Videos
	}
	if sum != st.Videos {
		t.Errorf("per-shard videos sum to %d, aggregate says %d", sum, st.Videos)
	}
	if st.Videos != 6 {
		t.Errorf("aggregate videos = %d, want 6", st.Videos)
	}

	// A single-engine backend reports exactly one shard entry.
	ts1, _ := newTestServer(t, "")
	populate(t, ts1)
	if st1 := getStats(t, ts1); len(st1.Shards) != 1 {
		t.Errorf("single engine reported %d shard entries, want 1", len(st1.Shards))
	}
}

// A cache hit answers with the body of the miss that filled it, shard
// accounting included: two identical requests to a 4-shard server return
// byte-identical bodies, the second from the cache.
func TestShardedCacheHitKeepsShardsTotal(t *testing.T) {
	ts, _ := newShardedServer(t, 4)
	populate(t, ts)
	var bodies [2]string
	for i := range bodies {
		resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(b)
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("the cache hit's body differs from the miss's\nmiss: %s\nhit:  %s", bodies[0], bodies[1])
	}
	if !strings.Contains(bodies[1], `"shardsTotal":4`) {
		t.Errorf("answer %s does not report 4 shards", bodies[1])
	}
	if st := getStats(t, ts); st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
}

func TestDrainShardEndpoint(t *testing.T) {
	ts, router := newShardedServer(t, 2)
	populate(t, ts)
	before := getStats(t, ts)

	// Recommendations before the drain, to compare after.
	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Results []videorec.Recommendation `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if resp := post(t, ts.URL+"/shards/drain?shard=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d, want 200", resp.StatusCode)
	}
	if got := router.NumShards(); got != 1 {
		t.Fatalf("after drain NumShards = %d, want 1", got)
	}
	after := getStats(t, ts)
	if len(after.Shards) != 1 || after.Videos != before.Videos {
		t.Fatalf("after drain: %d shard entries, %d videos (want 1, %d)",
			len(after.Shards), after.Videos, before.Videos)
	}

	// Rankings survive the drain bit-identically.
	resp2, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Results []videorec.Recommendation `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if fmt.Sprint(got.Results) != fmt.Sprint(want.Results) {
		t.Fatalf("post-drain rankings differ:\n got %v\nwant %v", got.Results, want.Results)
	}

	// Draining the last shard is refused.
	if resp := post(t, ts.URL+"/shards/drain?shard=0", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("drain last shard: status %d, want 409", resp.StatusCode)
	}
	// Malformed and out-of-range shard parameters.
	if resp := post(t, ts.URL+"/shards/drain?shard=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed shard: status %d, want 400", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/shards/drain?shard=7", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("out-of-range shard: status %d, want 409", resp.StatusCode)
	}
}

func TestDrainShardRequiresDrainer(t *testing.T) {
	// A plain engine backend has no shards to drain: 409, not a panic.
	ts, _ := newTestServer(t, "")
	populate(t, ts)
	if resp := post(t, ts.URL+"/shards/drain?shard=0", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("drain on single engine: status %d, want 409", resp.StatusCode)
	}
}

func TestReplicationShardParamValidation(t *testing.T) {
	ts, _ := newShardedServer(t, 2)
	populate(t, ts)

	// Out-of-range shard on the replication endpoints is a client error.
	resp, err := http.Get(ts.URL + "/replication/snapshot?shard=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("snapshot shard=5: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/replication/tail?after=0&shard=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tail shard=5: status %d, want 400", resp.StatusCode)
	}
	// In-range shard without a journal: 409 (same contract as single engine).
	resp, err = http.Get(ts.URL + "/replication/snapshot?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("snapshot shard=1 without journal: status %d, want 409", resp.StatusCode)
	}
}
