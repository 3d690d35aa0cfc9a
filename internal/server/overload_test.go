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
	"sync"
	"testing"
	"time"

	"videorec"
	"videorec/internal/faults"
	"videorec/internal/overload"
)

// waitForCond polls until cond holds or the deadline passes.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// admit()'s error mapping, pinned: shed is the only 503 that counts as shed,
// queue-wait context death is the caller's outcome (499 canceled / 504
// expired), and eviction is a 504 that still earns a Retry-After (the doom
// came from server load, not the client's own budget alone).
func TestOverloadStatusMapping(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		reason     string
		retryAfter bool
		shed       bool
	}{
		{overload.ErrShed, http.StatusServiceUnavailable, "shed", true, true},
		{fmt.Errorf("wrap: %w", overload.ErrShed), http.StatusServiceUnavailable, "shed", true, true},
		{overload.ErrDoomed, http.StatusGatewayTimeout, "queue_evicted", true, false},
		{context.Canceled, StatusClientClosedRequest, "client_closed", false, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline", false, false},
		{errors.New("anything else"), http.StatusInternalServerError, "", false, false},
	}
	for _, c := range cases {
		status, reason, retryAfter, shed := overloadStatus(c.err)
		if status != c.status || reason != c.reason || retryAfter != c.retryAfter || shed != c.shed {
			t.Errorf("overloadStatus(%v) = (%d, %q, %v, %v), want (%d, %q, %v, %v)",
				c.err, status, reason, retryAfter, shed, c.status, c.reason, c.retryAfter, c.shed)
		}
	}
}

// errorBody decodes the JSON error envelope ({"error": ..., "reason": ...}).
func errorBody(t *testing.T, resp *http.Response) map[string]string {
	t.Helper()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return body
}

// gatedBackend wraps a real engine and parks every RecommendCtx call until
// the test lets it go: a value sent on release frees one parked call, closing
// release frees them all. Each call first announces its clip id on entered,
// so a test can hold queries in flight deterministically while more arrive,
// and once released reports on budgets how long its deadline had left.
type gatedBackend struct {
	*videorec.Engine
	// entered and budgets hold one entry per call that reached the backend;
	// 16 is more calls than any test makes, so a send never blocks.
	entered chan string
	budgets chan time.Duration
	release chan struct{}
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		Engine:  videorec.New(videorec.Options{SubCommunities: 6}),
		entered: make(chan string, 16),
		budgets: make(chan time.Duration, 16),
		release: make(chan struct{}),
	}
}

func (g *gatedBackend) RecommendCtx(ctx context.Context, clipID string, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error) {
	g.entered <- clipID
	<-g.release
	if dl, ok := ctx.Deadline(); ok {
		g.budgets <- time.Until(dl)
	}
	return g.Engine.RecommendCtx(ctx, clipID, topK)
}

// Limiter slot accounting, deterministically: a request shed at admission
// never holds a slot or reaches the backend, and a served request releases
// exactly its own slot — to the queued request, and to nobody else.
//
// Choreography (MaxInFlight 2, MaxQueue 1): A and B are admitted and park
// inside the gated backend; C queues behind the full limiter; D finds the
// queue full and is shed. Freeing one parked call must hand its slot to C
// (two in flight, none queued), and once everything is released the
// controller must drain to zero in flight and zero queued.
func TestLimiterSlotAccounting(t *testing.T) {
	g := newGatedBackend()
	srv := NewWithConfig(g, Config{MaxInFlight: 2, MaxQueue: 1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	populate(t, ts)

	statuses := make(chan int, 3)
	get := func(id string) {
		resp, err := http.Get(fmt.Sprintf("%s/recommend?id=%s&k=3", ts.URL, id))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}

	// A and B: admitted into both slots, parked in the gated backend.
	go get("clip-0")
	go get("clip-1")
	if parked := map[string]bool{<-g.entered: true, <-g.entered: true}; !parked["clip-0"] || !parked["clip-1"] {
		t.Fatalf("parked calls %v, want clip-0 and clip-1", parked)
	}

	// C: the limiter is full — queued at admission, not in the backend.
	go get("clip-2")
	waitForCond(t, "C queued", func() bool { return srv.ctl.Snapshot().QueueDepth == 1 })

	// D: queue full — shed with 503, a "shed" body, and a Retry-After hint.
	resp, err := http.Get(ts.URL + "/recommend?id=clip-3&k=3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("D status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if body := errorBody(t, resp); body["reason"] != "shed" {
		t.Errorf("shed body reason = %q, want \"shed\"", body["reason"])
	}
	resp.Body.Close()

	// Free one parked call: its slot, and only its slot, passes to C.
	g.release <- struct{}{}
	if id := <-g.entered; id != "clip-2" {
		t.Fatalf("after one release the backend saw %s, want the queued clip-2", id)
	}
	if s := srv.ctl.Snapshot(); s.InFlight != 2 || s.QueueDepth != 0 {
		t.Fatalf("after one release: %d in flight, %d queued; want 2 and 0", s.InFlight, s.QueueDepth)
	}

	close(g.release)
	for i := 0; i < 3; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("served request status %d, want 200", st)
		}
	}
	// Every served request released its slot; the shed D never reached the
	// backend.
	waitForCond(t, "controller drained", func() bool {
		s := srv.ctl.Snapshot()
		return s.InFlight == 0 && s.QueueDepth == 0
	})
	if n := len(g.entered); n != 0 {
		t.Errorf("%d more calls reached the backend, want none (D was shed)", n)
	}
	if srv.shed.Load() != 1 {
		t.Errorf("shed counter = %d, want exactly 1 (only D)", srv.shed.Load())
	}
}

// Brownout under queue pressure: once the queue crosses the tier-1
// threshold, the next request admitted from the queue runs with its
// deadline shrunk to BrownoutMargin, which bounds how long it may refine.
// Every other request keeps the query timeout.
func TestBrownoutShrinksTierOneDeadline(t *testing.T) {
	g := newGatedBackend()
	srv := NewWithConfig(g, Config{
		MaxInFlight:  1,
		MaxQueue:     8, // tier 1 enters at depth 4, exits at depth 2
		Brownout:     true,
		QueryTimeout: 5 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	populate(t, ts)

	// Park the only slot inside the gated backend.
	aCh := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
		if err != nil {
			t.Error(err)
			aCh <- 0
			return
		}
		resp.Body.Close()
		aCh <- resp.StatusCode
	}()
	<-g.entered

	// Queue four more: depth 4 crosses the tier-1 entry threshold.
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/recommend?id=clip-%d&k=3", ts.URL, i))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("queued request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	waitForCond(t, "queue at tier-1 depth", func() bool { return srv.ctl.Snapshot().QueueDepth == 4 })
	if tier := srv.ctl.Tier(); tier < 1 {
		t.Fatalf("tier = %d at queue depth 4, want >= 1", tier)
	}

	close(g.release)
	wg.Wait()
	if st := <-aCh; st != http.StatusOK {
		t.Fatalf("parked request status %d", st)
	}

	// Exactly the first request dispatched under tier 1 was browned out: it
	// ran with the shrunk deadline. The later ones dispatched after the
	// queue fell below the exit threshold and kept the query timeout.
	if got := srv.brownout.Load(); got != 1 {
		t.Errorf("brownout counter = %d, want 1", got)
	}
	close(g.budgets)
	var shrunk int
	for left := range g.budgets {
		if left <= srv.cfg.BrownoutMargin {
			shrunk++
		} else if left < time.Second {
			t.Errorf("a request ran with %v of its 5s deadline left", left)
		}
	}
	if shrunk != 1 {
		t.Errorf("%d requests ran under a deadline within the %v brownout margin, want exactly 1 (the tier-1 dispatch)", shrunk, srv.cfg.BrownoutMargin)
	}
}

// /stats must surface the overload-control observability: live limit, queue
// state, wait percentiles, eviction/brownout counters.
func TestStatsReportOverloadControl(t *testing.T) {
	ts, _ := newResilientServer(t, Config{MaxInFlight: 2, MaxQueue: 4, LimitCeiling: 8})
	populate(t, ts)
	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"limit", "limitProbes", "limitBackoffs", "queueDepth",
		"queueWaitP50Ms", "queueWaitP99Ms", "queueEvictedTotal",
		"brownoutTier", "brownoutTotal", "inFlight",
	} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
	if lim, ok := stats["limit"].(float64); !ok || lim < 2 || lim > 8 {
		t.Errorf("stats limit = %v, want within [2, 8]", stats["limit"])
	}
}

// Chaos for the adaptive limiter: probe/backoff cycles run concurrently
// with client cancellations, mid-traffic republishes (comment updates) and
// armed fault sites; run under -race. The limiter must stay within its
// configured bounds, make at least one adjustment, and the server must
// answer clean queries once the faults clear.
func TestChaosAdaptiveLimiterStorm(t *testing.T) {
	defer faults.Reset()
	ts, srv := newResilientServer(t, Config{
		MaxInFlight:  4,
		MaxQueue:     8,
		LimitFloor:   2,
		LimitCeiling: 32,
		AdjustWindow: 10 * time.Millisecond, // fast cadence so cycles happen in-test
		Brownout:     true,
		QueryTimeout: 150 * time.Millisecond,
		RetryAfter:   time.Second,
	})
	populate(t, ts)

	faults.Arm(faults.RefineScore, faults.Latency(time.Millisecond))
	faults.Arm(faults.ServerRecommend, faults.PanicEvery(37, "storm panic"))

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusServiceUnavailable:  true, // shed
		http.StatusGatewayTimeout:      true, // deadline or queue-evicted
		http.StatusInternalServerError: true, // injected panics
		StatusClientClosedRequest:      true,
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("clip-%d", rng.Intn(6))
				ctx := context.Background()
				if rng.Intn(4) == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(8))*time.Millisecond)
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
					t.Errorf("worker %d: unexpected status %d", w, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	// Republish worker: comment storms force view republishes mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body, _ := json.Marshal(map[string][]string{
				fmt.Sprintf("clip-%d", i%6): {fmt.Sprintf("storm-user-%d", i), "ann"},
			})
			resp, err := http.Post(ts.URL+"/updates", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()

	s := srv.ctl.Snapshot()
	if s.Limit < 2 || s.Limit > 32 {
		t.Errorf("limit %d escaped [floor=2, ceiling=32]", s.Limit)
	}
	if s.LimitMax > 32 || s.LimitMin < 2 {
		t.Errorf("limit excursion [%d, %d] escaped [2, 32]", s.LimitMin, s.LimitMax)
	}
	if s.ProbeTotal+s.BackoffTotal == 0 {
		t.Error("limiter made no adjustments through the whole storm")
	}
	t.Logf("storm: limit=%d range=[%d,%d] probes=%d backoffs=%d evicted=%d peakQueue=%d brownouts=%d",
		s.Limit, s.LimitMin, s.LimitMax, s.ProbeTotal, s.BackoffTotal, s.EvictedTotal, s.PeakQueue, srv.brownout.Load())

	// Faults cleared: a clean query answers 200 with results.
	faults.Reset()
	resp, err := http.Get(ts.URL + "/recommend?id=clip-0&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm query: status %d, want 200", resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) == 0 {
		t.Fatal("post-storm query returned no results")
	}
}
