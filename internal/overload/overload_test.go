package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock, making every latency sample and
// window boundary in these tests deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// waitFor polls cond until it holds or the test times out. The controller
// never depends on wall time (fake clock), so polling is purely about
// goroutine scheduling.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// deadlineCtx reports a (fake-clock) deadline to Deadline() but never
// actually fires: the controller's eviction logic sees the budget while the
// test stays immune to real-time scheduling.
type deadlineCtx struct {
	context.Context
	dl time.Time
}

func (d deadlineCtx) Deadline() (time.Time, bool) { return d.dl, true }
func (d deadlineCtx) Done() <-chan struct{}       { return nil }
func (d deadlineCtx) Err() error                  { return nil }

// drive completes n requests, each taking lat of (fake) service time — the
// basic way to feed the latency model.
func drive(t *testing.T, c *Controller, clk *fakeClock, n int, lat time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		rel, _, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatalf("drive acquire %d: %v", i, err)
		}
		clk.advance(lat)
		rel()
	}
}

func TestFixedLimitQueueAndShed(t *testing.T) {
	clk := newClock()
	c := New(Config{Limit: 1, MaxQueue: 1, Now: clk.now})

	rel1, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second request queues.
	got := make(chan error, 1)
	go func() {
		rel, _, err := c.Acquire(context.Background())
		if err == nil {
			defer rel()
		}
		got <- err
	}()
	waitFor(t, "second request queued", func() bool { return c.Snapshot().QueueDepth == 1 })
	// Third sheds: queue is full.
	if _, _, err := c.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("third acquire: err = %v, want ErrShed", err)
	}
	rel1()
	if err := <-got; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	s := c.Snapshot()
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Fatalf("leaked state: %+v", s)
	}
	if s.QueuedServed != 1 {
		t.Fatalf("queuedServed = %d, want 1", s.QueuedServed)
	}
	if s.Limit != 1 {
		t.Fatalf("fixed limit moved to %d", s.Limit)
	}
}

// The AIMD core: while latency tracks the no-queue baseline the limit
// probes additively to the ceiling; when latency inflates past tolerance it
// backs off multiplicatively to the floor.
func TestAIMDProbeAndBackoff(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Limit: 4, Floor: 2, Ceiling: 16, MaxQueue: 16,
		Tolerance: 2.0, Backoff: 0.5,
		AdjustWindow: 10 * time.Millisecond, MinWindowSamples: 4,
		Now: clk.now,
	})

	// Healthy phase: 1ms service time, every window at the baseline.
	drive(t, c, clk, 200, time.Millisecond)
	s := c.Snapshot()
	if s.Limit != 16 {
		t.Fatalf("healthy phase: limit = %d, want ceiling 16", s.Limit)
	}
	if s.ProbeTotal == 0 {
		t.Fatal("no probes counted")
	}
	if s.BaselineMs < 0.9 || s.BaselineMs > 1.1 {
		t.Fatalf("baseline = %vms, want ~1ms", s.BaselineMs)
	}

	// Congested phase: latency inflates 5x past tolerance. The backoff is
	// multiplicative (16 → 8 → 4 → 2 within three windows), and the slow
	// baseline drift must not re-accept 5ms as normal within the phase.
	drive(t, c, clk, 60, 5*time.Millisecond)
	s = c.Snapshot()
	if s.Limit != 2 {
		t.Fatalf("congested phase: limit = %d, want floor 2", s.Limit)
	}
	if s.BackoffTotal == 0 {
		t.Fatal("no backoffs counted")
	}
	if s.LimitMax != 16 || s.LimitMin != 2 {
		t.Fatalf("limit excursion [%d, %d], want [2, 16]", s.LimitMin, s.LimitMax)
	}

	// Recovery: latency back at baseline, the limit climbs again.
	drive(t, c, clk, 300, time.Millisecond)
	if got := c.Snapshot().Limit; got != 16 {
		t.Fatalf("recovery: limit = %d, want 16", got)
	}
}

// A request whose deadline budget cannot cover the expected service time is
// refused immediately — at enqueue, and again at dispatch after queue wait
// consumed its budget.
func TestDeadlineEviction(t *testing.T) {
	clk := newClock()
	c := New(Config{Limit: 1, MaxQueue: 8, AdjustWindow: time.Hour, Now: clk.now})
	drive(t, c, clk, 5, 10*time.Millisecond) // teach expected service ~10ms

	hold, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Doomed on arrival: 2ms of budget against ~10ms expected service.
	ctx := deadlineCtx{context.Background(), clk.now().Add(2 * time.Millisecond)}
	if _, _, err := c.Acquire(ctx); !errors.Is(err, ErrDoomed) {
		t.Fatalf("tight-deadline acquire: err = %v, want ErrDoomed", err)
	}

	// Doomed at dispatch: 50ms of budget is plenty at enqueue, but the queue
	// wait burns 45 of them before a slot frees.
	ctx2 := deadlineCtx{context.Background(), clk.now().Add(50 * time.Millisecond)}
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Acquire(ctx2)
		got <- err
	}()
	waitFor(t, "waiter queued", func() bool { return c.Snapshot().QueueDepth == 1 })
	clk.advance(45 * time.Millisecond)
	hold()
	if err := <-got; !errors.Is(err, ErrDoomed) {
		t.Fatalf("stale waiter: err = %v, want ErrDoomed", err)
	}
	if got := c.Snapshot().EvictedTotal; got != 2 {
		t.Fatalf("evictedTotal = %d, want 2", got)
	}
	// The slot freed by hold() must still be grantable.
	rel, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatalf("post-eviction acquire: %v", err)
	}
	rel()
}

// Queue order is FIFO normally and flips to LIFO once the queue has been
// continuously occupied past LIFOAfter — fresh requests first.
func TestAdaptiveLIFOOrdering(t *testing.T) {
	for _, lifo := range []bool{false, true} {
		clk := newClock()
		c := New(Config{Limit: 1, MaxQueue: 8, LIFOAfter: 50 * time.Millisecond, AdjustWindow: time.Hour, Now: clk.now})
		hold, _, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		order := make(chan string, 3)
		enqueue := func(name string) {
			go func() {
				rel, _, err := c.Acquire(context.Background())
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				order <- name
				rel()
			}()
		}
		for i, name := range []string{"A", "B", "C"} {
			enqueue(name)
			want := i + 1
			waitFor(t, name+" queued", func() bool { return c.Snapshot().QueueDepth == want })
			clk.advance(time.Millisecond) // distinct enqueue times
		}
		if lifo {
			clk.advance(60 * time.Millisecond) // past LIFOAfter: sustained overload
		}
		hold()
		var got [3]string
		for i := range got {
			got[i] = <-order
		}
		want := [3]string{"A", "B", "C"}
		if lifo {
			want = [3]string{"C", "B", "A"}
		}
		if got != want {
			t.Fatalf("lifo=%v: dispatch order %v, want %v", lifo, got, want)
		}
		s := c.Snapshot()
		if lifo && s.LIFODispatches == 0 {
			t.Fatal("LIFO dispatches not counted")
		}
		if !lifo && s.LIFODispatches != 0 {
			t.Fatalf("unexpected LIFO dispatches: %d", s.LIFODispatches)
		}
	}
}

// A caller's context dying while queued returns ctx.Err() and removes the
// waiter; the departed waiter must never be granted a slot.
func TestCancelWhileQueued(t *testing.T) {
	clk := newClock()
	c := New(Config{Limit: 1, MaxQueue: 4, Now: clk.now})
	hold, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Acquire(ctx)
		got <- err
	}()
	waitFor(t, "waiter queued", func() bool { return c.Snapshot().QueueDepth == 1 })
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	if got := c.Snapshot().QueueDepth; got != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", got)
	}
	hold()
	// The freed slot must go to a live request, not the canceled ghost.
	rel, waited, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if waited != 0 {
		t.Fatalf("fresh request waited %v with an empty queue", waited)
	}
	rel()
	if s := c.Snapshot(); s.InFlight != 0 {
		t.Fatalf("inFlight = %d after full drain", s.InFlight)
	}
}

// Retry-After derives from queue depth over drain rate; before any signal
// exists it falls back to the configured constant; it is clamped at the cap.
func TestRetryAfterFromDrainRate(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Limit: 1, MaxQueue: 16,
		AdjustWindow: 100 * time.Millisecond, MinWindowSamples: 2,
		RetryAfterFallback: 2 * time.Second, RetryAfterMax: 5 * time.Second,
		Now: clk.now,
	})
	// No completions yet: fallback.
	if got := c.RetryAfterSeconds(); got != 2 {
		t.Fatalf("fallback Retry-After = %d, want 2", got)
	}
	// Two completions of 500ms each: drain rate 2/s.
	drive(t, c, clk, 2, 500*time.Millisecond)
	hold, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		go func() {
			rel, _, err := c.Acquire(context.Background())
			if err == nil {
				rel()
			}
		}()
	}
	waitFor(t, "three waiters", func() bool { return c.Snapshot().QueueDepth == 3 })
	// (3 queued + 1) / 2 per second = 2s.
	if got := c.RetryAfterSeconds(); got != 2 {
		t.Fatalf("computed Retry-After = %d, want 2", got)
	}
	hold()
	waitFor(t, "drain", func() bool { s := c.Snapshot(); return s.InFlight == 0 && s.QueueDepth == 0 })
}

// Retry-After clamps to the configured cap when the drain rate says longer.
func TestRetryAfterClamped(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Limit: 1, MaxQueue: 64,
		AdjustWindow: 100 * time.Millisecond, MinWindowSamples: 2,
		RetryAfterMax: 3 * time.Second,
		Now:           clk.now,
	})
	drive(t, c, clk, 2, 2*time.Second) // drain rate 0.5/s
	hold, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		go func() {
			rel, _, err := c.Acquire(context.Background())
			if err == nil {
				rel()
			}
		}()
	}
	waitFor(t, "ten waiters", func() bool { return c.Snapshot().QueueDepth == 10 })
	// (10+1)/0.5 = 22s, clamped to 3.
	if got := c.RetryAfterSeconds(); got != 3 {
		t.Fatalf("clamped Retry-After = %d, want 3", got)
	}
	hold()
	waitFor(t, "drain", func() bool { s := c.Snapshot(); return s.InFlight == 0 && s.QueueDepth == 0 })
}

// Brownout tiers enter eagerly on queue depth and exit with hysteresis.
func TestBrownoutTierHysteresis(t *testing.T) {
	clk := newClock()
	// MaxQueue 4: enter1=2, enter2=3, exit1=1, exit2=2.
	c := New(Config{Limit: 1, MaxQueue: 4, Now: clk.now})
	hold, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	type qw struct {
		cancel context.CancelFunc
		done   chan struct{}
	}
	var ws []qw
	push := func() {
		// Read the depth before the waiter can enqueue, or want overshoots.
		want := c.Snapshot().QueueDepth + 1
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			rel, _, err := c.Acquire(ctx)
			if err == nil {
				rel()
			}
		}()
		ws = append(ws, qw{cancel, done})
		waitFor(t, "enqueue", func() bool { return c.Snapshot().QueueDepth == want })
	}
	pop := func() {
		w := ws[len(ws)-1]
		ws = ws[:len(ws)-1]
		w.cancel()
		<-w.done
	}

	if got := c.Tier(); got != 0 {
		t.Fatalf("tier at depth 0 = %d", got)
	}
	push() // depth 1
	if got := c.Tier(); got != 0 {
		t.Fatalf("tier at depth 1 = %d, want 0", got)
	}
	push() // depth 2 >= enter1
	if got := c.Tier(); got != 1 {
		t.Fatalf("tier at depth 2 = %d, want 1", got)
	}
	push() // depth 3 >= enter2
	if got := c.Tier(); got != 2 {
		t.Fatalf("tier at depth 3 = %d, want 2", got)
	}
	pop() // depth 2 <= exit2: drops only to 1
	if got := c.Tier(); got != 1 {
		t.Fatalf("tier back at depth 2 = %d, want 1 (hysteresis)", got)
	}
	pop() // depth 1 <= exit1: back to normal
	if got := c.Tier(); got != 0 {
		t.Fatalf("tier back at depth 1 = %d, want 0", got)
	}
	pop()
	hold()
}

// Queue-wait percentiles come from the ring of admitted waiters' waits.
func TestQueueWaitPercentiles(t *testing.T) {
	clk := newClock()
	c := New(Config{Limit: 1, MaxQueue: 4, AdjustWindow: time.Hour, Now: clk.now})
	hold, _, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan time.Duration, 1)
	go func() {
		rel, waited, err := c.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		rel()
		done <- waited
	}()
	waitFor(t, "waiter queued", func() bool { return c.Snapshot().QueueDepth == 1 })
	clk.advance(7 * time.Millisecond)
	hold()
	if waited := <-done; waited != 7*time.Millisecond {
		t.Fatalf("waited = %v, want 7ms", waited)
	}
	s := c.Snapshot()
	if s.QueueWaitP50Ms != 7 || s.QueueWaitP99Ms != 7 {
		t.Fatalf("wait percentiles p50=%v p99=%v, want 7/7", s.QueueWaitP50Ms, s.QueueWaitP99Ms)
	}
}

// A nil controller admits everything and reports zeros — the disabled mode.
func TestNilController(t *testing.T) {
	var c *Controller
	rel, waited, err := c.Acquire(context.Background())
	if err != nil || waited != 0 {
		t.Fatalf("nil acquire: %v %v", waited, err)
	}
	rel()
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if c.Tier() != 0 || c.Limit() != 0 || c.InFlight() != 0 {
		t.Fatal("nil accessors not zero")
	}
	if New(Config{Limit: 0}) != nil {
		t.Fatal("New with Limit 0 should return nil")
	}
}

// The limit never leaves [Floor, Ceiling], whatever the latency does.
func TestLimitBounds(t *testing.T) {
	clk := newClock()
	c := New(Config{
		Limit: 8, Floor: 4, Ceiling: 8, MaxQueue: 8,
		AdjustWindow: time.Millisecond, MinWindowSamples: 1,
		Now: clk.now,
	})
	drive(t, c, clk, 50, 100*time.Microsecond)
	if got := c.Snapshot().Limit; got > 8 {
		t.Fatalf("limit %d above ceiling", got)
	}
	drive(t, c, clk, 5, time.Millisecond) // set a baseline to inflate against
	drive(t, c, clk, 100, 50*time.Millisecond)
	if got := c.Snapshot().Limit; got < 4 {
		t.Fatalf("limit %d below floor", got)
	}
}
