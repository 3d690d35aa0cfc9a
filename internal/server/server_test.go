package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"videorec"
	"videorec/internal/video"
)

func clipJSON(t testing.TB, id string, topic int, seed int64, owner string, commenters ...string) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := video.Synthesize(id, topic, video.DefaultSynthOptions(), rng)
	c := ClipJSON{ID: id, FPS: v.FPS, Owner: owner, Commenters: commenters}
	for _, f := range v.Frames {
		c.Frames = append(c.Frames, FrameJSON{W: f.W, H: f.H, Pix: f.Pix})
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t testing.TB, snapshotPath string) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(videorec.New(videorec.Options{SubCommunities: 6}), snapshotPath)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func post(t testing.TB, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func populate(t testing.TB, ts *httptest.Server) {
	t.Helper()
	fans := []string{"ann", "ben", "cal", "dee"}
	for i := 0; i < 6; i++ {
		body := clipJSON(t, fmt.Sprintf("clip-%d", i), i%2, int64(i+1), fans[i%4], fans...)
		resp := post(t, ts.URL+"/videos", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	if resp := post(t, ts.URL+"/build", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}
}

func TestIngestBuildRecommend(t *testing.T) {
	ts, _ := newTestServer(t, "")
	populate(t, ts)

	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend status %d", resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) == 0 || len(rr.Results) > 3 {
		t.Fatalf("got %d recommendations", len(rr.Results))
	}
	if rr.Degraded {
		t.Error("undeadlined query flagged degraded")
	}
	for _, r := range rr.Results {
		if r.VideoID == "clip-0" {
			t.Error("self-recommendation")
		}
	}
}

func TestRecommendAdHocClip(t *testing.T) {
	ts, _ := newTestServer(t, "")
	populate(t, ts)
	body := clipJSON(t, "visitor-view", 0, 99, "", "ann", "ben")
	resp := post(t, ts.URL+"/recommend?k=4", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) == 0 {
		t.Fatal("no recommendations for ad-hoc clip")
	}
}

func TestErrorStatuses(t *testing.T) {
	ts, _ := newTestServer(t, "")
	// Recommend before build → 409.
	resp, err := http.Get(ts.URL + "/recommend?id=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("before build: status %d, want 409", resp.StatusCode)
	}

	populate(t, ts)
	// Unknown id → 404.
	resp, err = http.Get(ts.URL + "/recommend?id=missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
	// Missing id → 400.
	resp, err = http.Get(ts.URL + "/recommend")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id: status %d, want 400", resp.StatusCode)
	}
	// Bad clip body → 400.
	if resp := post(t, ts.URL+"/videos", []byte("{notjson")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", resp.StatusCode)
	}
	// Clip with no frames → 400.
	if resp := post(t, ts.URL+"/videos", []byte(`{"id":"x"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("frameless clip: status %d, want 400", resp.StatusCode)
	}
}

// A clip frame whose W·H overflows int is a bad request, not a recovered
// handler panic.
func TestOverflowingFrameIsBadRequest(t *testing.T) {
	ts, srv := newTestServer(t, "")
	populate(t, ts)
	body, err := json.Marshal(ClipJSON{ID: "huge", Frames: []FrameJSON{{W: math.MaxInt/2 + 1, H: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(t, ts.URL+"/videos", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /videos: status %d, want 400", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/recommend?k=3", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /recommend: status %d, want 400", resp.StatusCode)
	}
	if n := srv.panics.Load(); n != 0 {
		t.Errorf("panicsRecovered = %d, want 0", n)
	}
}

// A clip frame with a side over video.MaxFrameSide is a bad request on both
// clip routes, and nothing is ingested.
func TestOversizedFrameSideIsBadRequest(t *testing.T) {
	ts, srv := newTestServer(t, "")
	populate(t, ts)
	before := srv.eng.Len()
	side := video.MaxFrameSide + 1
	for _, f := range []FrameJSON{{W: side, H: 1}, {W: 1, H: side}} {
		f.Pix = make([]float64, side)
		body, err := json.Marshal(ClipJSON{ID: "wide", Frames: []FrameJSON{f}})
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range []string{"/videos", "/recommend?k=3"} {
			if resp := post(t, ts.URL+route, body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s with a %dx%d frame: status %d, want 400", route, f.W, f.H, resp.StatusCode)
			}
		}
	}
	if n := srv.eng.Len(); n != before {
		t.Errorf("%d clips after the rejected adds, want %d", n, before)
	}
}

// framesBody streams a clip body of n one-pixel frames without holding it.
type framesBody struct {
	head, tail string
	n          int
	buf        []byte
}

func (b *framesBody) Read(p []byte) (int, error) {
	for len(b.buf) < len(p) {
		switch {
		case b.head != "":
			b.buf, b.head = append(b.buf, b.head...), ""
		case b.n > 0:
			b.buf, b.n = append(b.buf, `{"w":1,"h":1,"pix":[0]},`...), b.n-1
		case b.tail != "":
			b.buf, b.tail = append(b.buf, b.tail...), ""
		default:
			if len(b.buf) == 0 {
				return 0, io.EOF
			}
			p = p[:len(b.buf)]
		}
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

// A clip of more than video.MaxFrames frames is refused on both clip routes
// and nothing is ingested. Over HTTP such a body is necessarily past the
// 4 MiB clip-body cap (each frame is at least a few bytes of JSON), so the
// cap answers 413 before the frame count is read; toVideo's own count check
// guards the Go API, where a clip that long would take 160 MB of frames to
// test.
func TestTooManyFramesRefused(t *testing.T) {
	ts, srv := newTestServer(t, "")
	populate(t, ts)
	before := srv.eng.Len()
	for _, route := range []string{"/videos", "/recommend?k=3"} {
		body := &framesBody{head: `{"id":"long","frames":[`, n: video.MaxFrames, tail: `{"w":1,"h":1,"pix":[0]}]}`}
		resp, err := http.Post(ts.URL+route, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d frames: status %d, want 413", route, video.MaxFrames+1, resp.StatusCode)
		}
	}
	if n := srv.eng.Len(); n != before {
		t.Errorf("%d clips after the refused adds, want %d", n, before)
	}
}

func TestUpdatesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "")
	populate(t, ts)
	body, _ := json.Marshal(map[string][]string{"clip-0": {"newfan1", "newfan2", "ann"}})
	resp := post(t, ts.URL+"/updates", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates status %d", resp.StatusCode)
	}
	var sum videorec.UpdateSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.NewConnections == 0 {
		t.Error("no connections derived")
	}
	if sum.GraphUsers == 0 || sum.GraphEdges == 0 {
		t.Errorf("graph counters missing from summary: users=%d edges=%d", sum.GraphUsers, sum.GraphEdges)
	}
	// Bad body → 400.
	if resp := post(t, ts.URL+"/updates", []byte("nope")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad updates body: status %d", resp.StatusCode)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.snap")
	ts, _ := newTestServer(t, path)
	populate(t, ts)
	if resp := post(t, ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	eng, err := videorec.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 6 {
		t.Errorf("restored %d clips, want 6", eng.Len())
	}
	// No path configured → 409.
	ts2, _ := newTestServer(t, "")
	if resp := post(t, ts2.URL+"/snapshot", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("snapshot without path: status %d, want 409", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, "")
	populate(t, ts)
	if _, err := http.Get(ts.URL + "/recommend?id=clip-1&k=2"); err != nil {
		t.Fatal(err)
	}
	// An update batch so /stats has a last-maintenance time to report.
	body, _ := json.Marshal(map[string][]string{"clip-0": {"statfan1", "statfan2", "ann"}})
	if resp := post(t, ts.URL+"/updates", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("updates status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Videos            int     `json:"videos"`
		SubCommunities    int     `json:"subCommunities"`
		QueriesServed     int64   `json:"queriesServed"`
		GraphUsers        int     `json:"graphUsers"`
		GraphEdges        int     `json:"graphEdges"`
		GraphOverlay      int     `json:"graphOverlay"`
		LastMaintenanceMs float64 `json:"lastMaintenanceMs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Videos != 6 {
		t.Errorf("videos = %d, want 6", stats.Videos)
	}
	if stats.QueriesServed != 1 {
		t.Errorf("queriesServed = %d, want 1", stats.QueriesServed)
	}
	if stats.GraphUsers == 0 || stats.GraphEdges == 0 {
		t.Errorf("graph size missing from stats: users=%d edges=%d", stats.GraphUsers, stats.GraphEdges)
	}
	if stats.GraphOverlay < 0 {
		t.Errorf("graphOverlay = %d, want >= 0", stats.GraphOverlay)
	}
	if stats.LastMaintenanceMs <= 0 {
		t.Errorf("lastMaintenanceMs = %v, want > 0", stats.LastMaintenanceMs)
	}
}

func TestCacheLRUBehavior(t *testing.T) {
	c := newResultCache(2)
	r1 := RecommendResponse{Results: []videorec.Recommendation{{VideoID: "a"}}}
	r2 := RecommendResponse{Results: []videorec.Recommendation{{VideoID: "b"}}}
	r3 := RecommendResponse{Results: []videorec.Recommendation{{VideoID: "c"}}}
	c.put("k1", r1)
	c.put("k2", r2)
	if _, ok := c.get("k1"); !ok { // touch k1: k2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.put("k3", r3) // evicts k2
	if _, ok := c.get("k2"); ok {
		t.Error("k2 should have been evicted")
	}
	if got, ok := c.get("k1"); !ok || got.Results[0].VideoID != "a" {
		t.Error("k1 lost")
	}
	if got, ok := c.get("k3"); !ok || got.Results[0].VideoID != "c" {
		t.Error("k3 lost")
	}
}

// serverStats reads the /stats endpoint.
type serverStats struct {
	Videos           int    `json:"videos"`
	ViewVersion      uint64 `json:"viewVersion"`
	CacheHits        int64  `json:"cacheHits"`
	CacheMisses      int64  `json:"cacheMisses"`
	CacheSize        int    `json:"cacheSize"`
	CandidatesTotal  int64  `json:"candidatesTotal"`
	RefinedTotal     int64  `json:"refinedTotal"`
	ShardFailTotal   uint64 `json:"shardFailTotal"`
	BreakerOpenTotal uint64 `json:"breakerOpenTotal"`
	QuorumLostTotal  uint64 `json:"quorumLostTotal"`
	Shards           []struct {
		Shard            int    `json:"shard"`
		Videos           int    `json:"videos"`
		ViewVersion      uint64 `json:"viewVersion"`
		Breaker          string `json:"breaker"`
		ConsecutiveFails int    `json:"consecutiveFails"`
		Failures         uint64 `json:"failures"`
		BreakerOpens     uint64 `json:"breakerOpens"`
		RetryInMs        int64  `json:"retryInMs"`
	} `json:"shards"`
}

func getStats(t *testing.T, ts *httptest.Server) serverStats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// /stats must show how much of the gathered candidate set refinement had to
// score: candidatesTotal counts every clip gathered for a computed answer,
// refinedTotal those that needed a κJ (at least the clips returned, never
// more than gathered), summed over shards on a sharded backend; an answer
// served from the cache did no work and adds nothing.
func TestStatsRefinementCounters(t *testing.T) {
	single, _ := newTestServer(t, "")
	sharded, _ := newShardedServer(t, 4)
	for name, ts := range map[string]*httptest.Server{"engine": single, "router": sharded} {
		populate(t, ts)
		fetch := func() int {
			resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=2")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var rr RecommendResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			return len(rr.Results)
		}
		returned := int64(fetch())
		st := getStats(t, ts)
		// Five other clips exist and the corpus is far below any candidate
		// budget, so every one of them is gathered exactly once.
		if st.CandidatesTotal != 5 {
			t.Errorf("%s: candidatesTotal = %d after one query over 6 clips, want 5", name, st.CandidatesTotal)
		}
		if st.RefinedTotal < returned || st.RefinedTotal > st.CandidatesTotal {
			t.Errorf("%s: refinedTotal = %d, want between %d returned and %d gathered", name, st.RefinedTotal, returned, st.CandidatesTotal)
		}
		fetch()
		if st2 := getStats(t, ts); st2.CacheHits != 1 || st2.CandidatesTotal != st.CandidatesTotal || st2.RefinedTotal != st.RefinedTotal {
			t.Errorf("%s: cached answer moved the counters: %+v -> %+v", name, st, st2)
		}
	}
}

// Mutations must not purge the result cache: entries are keyed by view
// version, so a mutation bumps the version (new keys miss once, then hit)
// while entries of the lapsed view stay resident until the LRU evicts them.
func TestVersionKeyedCacheSurvivesMutations(t *testing.T) {
	ts, _ := newTestServer(t, "")
	populate(t, ts)
	fetch := func() {
		resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	fetch()
	fetch()
	st := getStats(t, ts)
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// An update publishes a new view: the version bumps, nothing is purged.
	body, _ := json.Marshal(map[string][]string{"clip-0": {"fresh-user", "ann"}})
	post(t, ts.URL+"/updates", body)
	st2 := getStats(t, ts)
	if st2.ViewVersion != st.ViewVersion+1 {
		t.Errorf("viewVersion = %d after update, want %d", st2.ViewVersion, st.ViewVersion+1)
	}
	if st2.CacheSize != st.CacheSize {
		t.Errorf("cacheSize = %d after update, want %d (mutations must not purge)", st2.CacheSize, st.CacheSize)
	}

	// First fetch against the new view misses; the second hits again.
	fetch()
	fetch()
	st3 := getStats(t, ts)
	if st3.CacheMisses != st.CacheMisses+1 {
		t.Errorf("misses = %d after version bump, want %d", st3.CacheMisses, st.CacheMisses+1)
	}
	if st3.CacheHits != st.CacheHits+1 {
		t.Errorf("hits = %d after version bump, want %d", st3.CacheHits, st.CacheHits+1)
	}
	// The lapsed view's entry is still resident alongside the new one.
	if st3.CacheSize != st.CacheSize+1 {
		t.Errorf("cacheSize = %d, want %d (old + new version entries)", st3.CacheSize, st.CacheSize+1)
	}
}
