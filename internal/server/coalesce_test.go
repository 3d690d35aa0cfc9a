package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"videorec"
	"videorec/internal/video"
)

// newBatchedTestServer builds a populated server with coalescing enabled and
// a generous window, so concurrent test queries reliably land in one batch.
func newBatchedTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewWithConfig(videorec.New(videorec.Options{SubCommunities: 6}), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	populate(t, ts)
	return ts, srv
}

func batchGet(t *testing.T, ts *httptest.Server, id string, k int) RecommendResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/recommend?id=%s&k=%d", ts.URL, id, k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend %s status %d", id, resp.StatusCode)
	}
	var rr RecommendResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// gatedBackend wraps a real engine, blocking the FIRST serial RecommendCtx
// until released — so a test can deterministically hold one query in flight
// while more arrive and form a batch.
type gatedBackend struct {
	*videorec.Engine
	firstIn chan struct{} // closed when the first serial call has entered
	release chan struct{} // the first serial call blocks until this closes
	once    sync.Once
	batchMu sync.Mutex
	batches [][]videorec.BatchRequest
}

func (g *gatedBackend) RecommendCtx(ctx context.Context, clipID string, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error) {
	g.once.Do(func() {
		close(g.firstIn)
		<-g.release
	})
	return g.Engine.RecommendCtx(ctx, clipID, topK)
}

func (g *gatedBackend) RecommendBatchCtx(ctx context.Context, reqs []videorec.BatchRequest) []videorec.BatchAnswer {
	g.batchMu.Lock()
	g.batches = append(g.batches, append([]videorec.BatchRequest(nil), reqs...))
	g.batchMu.Unlock()
	return g.Engine.RecommendBatchCtx(ctx, reqs)
}

// The coalescer protocol, deterministically: a lone query bypasses; queries
// arriving while one is in flight form a batch; the batch flushes at
// MaxBatch; every batched answer is bit-identical to the serial answer.
func TestCoalescedRecommendMatchesSerial(t *testing.T) {
	eng := videorec.New(videorec.Options{SubCommunities: 6})
	fans := []string{"ann", "ben", "cal", "dee"}
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		v := video.Synthesize(fmt.Sprintf("clip-%d", i), i%2, video.DefaultSynthOptions(), rng)
		clip := videorec.Clip{ID: v.ID, FPS: v.FPS, Owner: fans[i%4], Commenters: fans}
		for _, f := range v.Frames {
			clip.Frames = append(clip.Frames, videorec.Frame{W: f.W, H: f.H, Pix: f.Pix})
		}
		if err := eng.Add(clip); err != nil {
			t.Fatal(err)
		}
	}
	eng.Build()

	g := &gatedBackend{Engine: eng, firstIn: make(chan struct{}), release: make(chan struct{})}
	b := newBatcher(g, time.Minute, 3) // flush only via MaxBatch — no timing dependence

	want := map[string][]videorec.Recommendation{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("clip-%d", i)
		recs, _, err := eng.RecommendCtx(context.Background(), id, 3)
		if err != nil {
			t.Fatalf("serial %s: %v", id, err)
		}
		want[id] = recs
	}

	type answer struct {
		recs []videorec.Recommendation
		err  error
	}
	// Query 0 bypasses and parks inside the gated backend.
	first := make(chan answer, 1)
	go func() {
		recs, _, err := b.recommend(context.Background(), "clip-0", 3)
		first <- answer{recs, err}
	}()
	<-g.firstIn

	// Three more arrive while it is in flight: they coalesce and flush at
	// MaxBatch=3 without any window wait.
	var wg sync.WaitGroup
	got := make([]answer, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs, _, err := b.recommend(context.Background(), fmt.Sprintf("clip-%d", i+1), 3)
			got[i] = answer{recs, err}
		}(i)
	}
	wg.Wait()
	close(g.release)
	a0 := <-first

	if a0.err != nil {
		t.Fatalf("bypassed query: %v", a0.err)
	}
	if !reflect.DeepEqual(a0.recs, want["clip-0"]) {
		t.Fatal("bypassed query differs from serial")
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("clip-%d", i+1)
		if got[i].err != nil {
			t.Fatalf("batched %s: %v", id, got[i].err)
		}
		if !reflect.DeepEqual(got[i].recs, want[id]) {
			t.Fatalf("batched %s differs from serial\nbatched: %+v\nserial:  %+v", id, got[i].recs, want[id])
		}
	}

	batched, flushes, bypass := b.stats()
	if batched != 3 || flushes != 1 || bypass != 1 {
		t.Fatalf("counters batched=%d flushes=%d bypass=%d, want 3/1/1", batched, flushes, bypass)
	}
	if len(g.batches) != 1 || len(g.batches[0]) != 3 {
		t.Fatalf("backend saw batches %v, want one batch of 3", g.batches)
	}
}

// A lone query must bypass the window — no added latency, counted as bypass.
func TestCoalesceBypassSingleQuery(t *testing.T) {
	ts, srv := newBatchedTestServer(t, Config{
		BatchWindow: time.Second, // a non-bypassed query would stall visibly
		CacheSize:   1,
	})
	start := time.Now()
	batchGet(t, ts, "clip-0", 3)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("single query took %v — it waited out the batch window", elapsed)
	}
	_, _, bypass := srv.batch.stats()
	if bypass == 0 {
		t.Fatal("single query was not counted as a bypass")
	}
}

// /stats must surface the coalescing counters.
func TestStatsReportBatching(t *testing.T) {
	ts, _ := newBatchedTestServer(t, Config{
		BatchWindow: 20 * time.Millisecond,
		CacheSize:   1,
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batchGet(t, ts, fmt.Sprintf("clip-%d", i), 3)
		}(i)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"batchedTotal", "batchFlushes", "avgBatchSize", "batchBypassTotal"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
}

// The batcher must flush early at MaxBatch instead of waiting out the
// window: with a window far longer than the test timeout, maxBatch
// concurrent queries still answer promptly.
func TestCoalesceFlushAtMaxBatch(t *testing.T) {
	ts, srv := newBatchedTestServer(t, Config{
		BatchWindow: 30 * time.Second,
		MaxBatch:    2,
		CacheSize:   1,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				batchGet(t, ts, fmt.Sprintf("clip-%d", i), 3)
			}(i)
		}
		wg.Wait()
	}()
	// Four uncoordinated clients can split 1 + 2 + 1: a query that arrives
	// while the others execute, after their batch detached, starts a batch of
	// its own and — by the coalescer's contract — waits for a partner. Keep
	// partners coming until the four are answered: each one bypasses or fills
	// the waiting batch to MaxBatch. Were MaxBatch not to flush, the four
	// would still sit out the 30 s window.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // abandons a partner that is itself waiting for one
	go func() {
		for n := 0; ctx.Err() == nil; n++ {
			// Alternating ids: the one-entry result cache never answers one.
			url := fmt.Sprintf("%s/recommend?id=clip-%d&k=3", ts.URL, 4+n%2)
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("queries stalled — MaxBatch did not flush the window early")
	}
	_, flushes, bypass := srv.batch.stats()
	if flushes == 0 && bypass < 4 {
		t.Fatalf("no flush and only %d bypasses for 4 queries", bypass)
	}
}
