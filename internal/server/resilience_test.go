package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"videorec"
	"videorec/internal/faults"
)

func newResilientServer(t testing.TB, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewWithConfig(videorec.New(videorec.Options{SubCommunities: 6}), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{videorec.ErrNotFound, http.StatusNotFound},
		{fmt.Errorf("wrap: %w", videorec.ErrNotFound), http.StatusNotFound},
		{videorec.ErrNotBuilt, http.StatusConflict},
		{videorec.ErrNoFrames, http.StatusBadRequest},
		{videorec.ErrEmptyID, http.StatusBadRequest},
		{context.Canceled, StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// Malformed or non-positive k must be a 400, not a silent fallback to the
// default; oversized k clamps to the configured maximum.
func TestQueryKValidation(t *testing.T) {
	ts, _ := newResilientServer(t, Config{MaxK: 2})
	populate(t, ts)

	for _, bad := range []string{"abc", "-3", "0", "1.5"} {
		resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("k=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// Oversized k clamps to MaxK instead of erroring.
	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped k: status %d", resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) > 2 {
		t.Errorf("k=50 returned %d results, want clamped to MaxK=2", len(rr.Results))
	}
	// Absent k still uses the default.
	resp2, err := http.Get(ts.URL + "/recommend?id=clip-0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("default k: status %d", resp2.StatusCode)
	}
}

// With the in-flight limit and queue saturated, excess requests are shed
// with 503 + Retry-After instead of queueing unboundedly.
func TestLoadSheddingRetryAfter(t *testing.T) {
	defer faults.Reset()
	ts, srv := newResilientServer(t, Config{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	populate(t, ts)
	// Park the in-flight slot: the armed handler sleeps inside the slot.
	faults.Arm(faults.ServerRecommend, faults.Latency(400*time.Millisecond))

	const clients = 4
	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger slightly so the first request reliably claims the slot.
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	shed, served := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] != "2" {
				t.Errorf("shed response %d: Retry-After = %q, want \"2\"", i, retryAfter[i])
			}
		case http.StatusOK:
			served++
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	// 1 in flight + 1 queued = 2 served; the other 2 shed.
	if shed != 2 || served != 2 {
		t.Errorf("served=%d shed=%d, want 2/2 (statuses %v)", served, shed, statuses)
	}
	if srv.shed.Load() != 2 {
		t.Errorf("shed counter = %d, want 2", srv.shed.Load())
	}
}

// A query deadline inside the engine's degrade margin answers 200 with
// degraded: true — coarse SAR results — never a timeout error; degraded
// answers are not cached.
func TestDegradedResponseNearDeadline(t *testing.T) {
	ts, srv := newResilientServer(t, Config{QueryTimeout: 15 * time.Millisecond})
	populate(t, ts)

	for round := 0; round < 2; round++ {
		resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
		if err != nil {
			t.Fatal(err)
		}
		var rr RecommendResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d, want 200", round, resp.StatusCode)
		}
		if !rr.Degraded {
			t.Fatalf("round %d: response not flagged degraded", round)
		}
		if len(rr.Results) == 0 {
			t.Fatalf("round %d: degraded response empty", round)
		}
		for _, r := range rr.Results {
			if r.Content != 0 {
				t.Errorf("degraded result %s has content score %g (EMD should be skipped)", r.VideoID, r.Content)
			}
		}
	}
	if got := srv.degraded.Load(); got != 2 {
		t.Errorf("degraded counter = %d, want 2 (degraded answers must not be cached)", got)
	}
	if hits, _, _ := srv.cache.stats(); hits != 0 {
		t.Errorf("cache hits = %d, want 0 — a degraded answer was cached", hits)
	}
	if c, r := srv.candidates.Load(), srv.refined.Load(); c == 0 || r != 0 {
		t.Errorf("candidates/refined = %d/%d, want gathered candidates and no κJ on degraded answers", c, r)
	}
}

// A handler panic becomes a 500 and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	defer faults.Reset()
	ts, srv := newResilientServer(t, Config{})
	populate(t, ts)
	faults.Arm(faults.ServerRecommend, faults.PanicEvery(1, "injected handler panic"))
	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	if srv.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", srv.panics.Load())
	}
	faults.Reset()
	resp2, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("server dead after recovered panic: status %d", resp2.StatusCode)
	}
}

// A client abandoning a slow request must leave the engine fully
// serviceable (the core-level test pins the promptness bound).
func TestClientCancelLeavesServerServiceable(t *testing.T) {
	defer faults.Reset()
	ts, _ := newResilientServer(t, Config{})
	populate(t, ts)
	faults.Arm(faults.RefineScore, faults.Latency(30*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/recommend?id=clip-1&k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Log("request finished before the cancel landed; engine check still applies")
	}
	faults.Reset()

	resp, err := http.Get(ts.URL + "/recommend?id=clip-1&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel status %d, want 200", resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) == 0 {
		t.Fatal("engine returned no results after a cancelled request")
	}
}

// /updates error paths: not built → 409, journal append failure → 500.
func TestUpdatesErrorPaths(t *testing.T) {
	defer faults.Reset()
	ts, srv := newResilientServer(t, Config{})
	// Before build: 409.
	body, _ := json.Marshal(map[string][]string{"v": {"u"}})
	if resp := post(t, ts.URL+"/updates", body); resp.StatusCode != http.StatusConflict {
		t.Errorf("updates before build: status %d, want 409", resp.StatusCode)
	}
	populate(t, ts)
	// Journal append failure: 500, and the engine state is not mutated.
	if err := srv.eng.(*videorec.Engine).AttachJournal(filepath.Join(t.TempDir(), "w.wal")); err != nil {
		t.Fatal(err)
	}
	versionBefore := srv.eng.Version()
	faults.Arm(faults.JournalAppend, faults.Error(nil))
	if resp := post(t, ts.URL+"/updates", body); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("journal fault: status %d, want 500", resp.StatusCode)
	}
	if srv.eng.Version() != versionBefore {
		t.Error("failed journal append still published a new view")
	}
	faults.Reset()
	if resp := post(t, ts.URL+"/updates", body); resp.StatusCode != http.StatusOK {
		t.Errorf("post-fault updates: status %d, want 200", resp.StatusCode)
	}
}

// An /updates body over the cap answers 413 without touching the engine —
// no new view, no journal cursor advance — and a batch within it still
// applies.
func TestUpdatesBodyCap(t *testing.T) {
	ts, srv := newResilientServer(t, Config{})
	populate(t, ts)
	version, seq := srv.eng.Version(), srv.eng.AppliedSeq()
	huge := map[string][]string{"clip-0": make([]string, maxUpdatesBody/3)} // 4 bytes each
	for i := range huge["clip-0"] {
		huge["clip-0"][i] = "u"
	}
	body, _ := json.Marshal(huge)
	if resp := post(t, ts.URL+"/updates", body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte batch: status %d, want 413", len(body), resp.StatusCode)
	}
	if srv.eng.Version() != version || srv.eng.AppliedSeq() != seq {
		t.Fatalf("refused batch moved the engine: version %d → %d, seq %d → %d",
			version, srv.eng.Version(), seq, srv.eng.AppliedSeq())
	}
	body, _ = json.Marshal(map[string][]string{"clip-0": {"newcomer", "ann"}})
	if resp := post(t, ts.URL+"/updates", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("ordinary batch: status %d, want 200", resp.StatusCode)
	}
	if srv.eng.Version() == version {
		t.Fatal("ordinary batch published no view")
	}
}

// A clip body over the cap answers 413 on both clip routes without touching
// the engine — no ingest, no new view — and an ordinary clip still answers
// 201 / 200.
func TestClipBodyCap(t *testing.T) {
	ts, srv := newResilientServer(t, Config{})
	populate(t, ts)
	one := clipJSON(t, "too-big", 0, 7, "ann")
	var c ClipJSON
	if err := json.Unmarshal(one, &c); err != nil {
		t.Fatal(err)
	}
	frames := c.Frames
	for range maxClipBody / len(one) {
		c.Frames = append(c.Frames, frames...)
	}
	huge, _ := json.Marshal(c)
	version, videos := srv.eng.Version(), srv.eng.Len()
	for _, route := range []string{"/videos", "/recommend?k=4"} {
		if resp := post(t, ts.URL+route, huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte clip on %s: status %d, want 413", len(huge), route, resp.StatusCode)
		}
	}
	if srv.eng.Version() != version || srv.eng.Len() != videos {
		t.Fatalf("refused clips moved the engine: version %d → %d, videos %d → %d",
			version, srv.eng.Version(), videos, srv.eng.Len())
	}
	if resp := post(t, ts.URL+"/recommend?k=4", clipJSON(t, "visitor", 0, 99, "", "ann")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ordinary ad-hoc clip: status %d, want 200", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/videos", clipJSON(t, "clip-new", 1, 42, "ben", "cal")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("ordinary clip: status %d, want 201", resp.StatusCode)
	}
}

// /snapshot error paths: save failure → 500, then recovery; concurrent
// snapshots serialize rather than clobbering each other's temp files.
func TestSnapshotErrorAndSerialization(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "srv.snap")
	ts, _ := newResilientServer(t, Config{SnapshotPath: path})
	populate(t, ts)

	faults.Arm(faults.SnapshotCommit, faults.Error(nil))
	if resp := post(t, ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("failing snapshot: status %d, want 500", resp.StatusCode)
	}
	faults.Reset()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/snapshot", "application/json", nil)
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent snapshot: %s", e)
	}
	if _, err := videorec.LoadFile(path); err != nil {
		t.Fatalf("snapshot unloadable after concurrent saves: %v", err)
	}
}

// Chaos: concurrent queries, mutations, client cancellations, snapshots and
// injected faults (latency, panics, journal errors) hammer the server; run
// under -race. The server must never wedge, and once the faults clear it
// must answer a clean query.
func TestChaosConcurrentTrafficWithFaults(t *testing.T) {
	defer faults.Reset()
	path := filepath.Join(t.TempDir(), "chaos.snap")
	ts, srv := newResilientServer(t, Config{
		SnapshotPath: path,
		MaxInFlight:  4,
		MaxQueue:     4,
		QueryTimeout: 80 * time.Millisecond,
		RetryAfter:   1 * time.Second,
	})
	populate(t, ts)
	if err := srv.eng.(*videorec.Engine).AttachJournal(filepath.Join(t.TempDir(), "chaos.wal")); err != nil {
		t.Fatal(err)
	}

	faults.Arm(faults.RefineScore, faults.Latency(time.Millisecond))
	faults.Arm(faults.ServerRecommend, faults.PanicEvery(23, "chaos panic"))
	faults.Arm(faults.JournalAppend, faults.FailN(3, nil))
	faults.Arm(faults.SnapshotCommit, faults.FailN(2, nil))

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusServiceUnavailable:  true,
		http.StatusInternalServerError: true, // injected panics and journal faults
		http.StatusGatewayTimeout:      true,
		StatusClientClosedRequest:      true,
	}

	var wg sync.WaitGroup
	// Query workers, some with client-side cancellation.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("clip-%d", rng.Intn(6))
				ctx := context.Background()
				if rng.Intn(3) == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(10))*time.Millisecond)
					defer cancel()
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/recommend?id="+id+"&k=3", nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue // client-side cancellation
				}
				if !allowed[resp.StatusCode] {
					t.Errorf("query worker %d: unexpected status %d", w, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	// Mutation workers: comment updates stream through maintenance.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 8; i++ {
				batch := map[string][]string{
					fmt.Sprintf("clip-%d", rng.Intn(6)): {fmt.Sprintf("chaos-user-%d-%d", w, i), "ann"},
				}
				body, _ := json.Marshal(batch)
				resp, err := http.Post(ts.URL+"/updates", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
					t.Errorf("mutation worker %d: status %d", w, resp.StatusCode)
				}
				resp.Body.Close()
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}
	// Snapshot worker: persistence races with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, err := http.Post(ts.URL+"/snapshot", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("snapshot worker: status %d", resp.StatusCode)
			}
			resp.Body.Close()
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Faults cleared: the engine must answer a clean, non-degraded query.
	faults.Reset()
	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos query: status %d, want 200", resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) == 0 {
		t.Fatal("post-chaos query returned no results")
	}
	// The snapshot that survived the chaos must be loadable.
	if _, err := videorec.LoadFile(path); err != nil {
		t.Fatalf("post-chaos snapshot unloadable: %v", err)
	}
}
