// Package overload is the serving layer's adaptive overload-control
// subsystem: it decides, request by request, whether the server should run
// a query now, make it wait, make it cheaper, or refuse it — and it makes
// those decisions from measured latency instead of fixed knobs.
//
// Four mechanisms compose:
//
//   - A latency-gradient concurrency limiter (AIMD). The controller tracks
//     a no-queue service-time baseline (the windowed minimum, allowed to
//     drift up slowly so corpus growth is not punished forever) and the
//     current window's mean. While the mean tracks the baseline within a
//     tolerance factor the limit probes additively upward toward a ceiling;
//     when latency inflates — the queueing signal — the limit backs off
//     multiplicatively toward a floor. A zero Ceiling disables adaptation
//     and the limit stays fixed, which is the pre-adaptive behavior.
//
//   - A deadline-aware bounded wait queue. Requests beyond the limit wait
//     for a slot — but a waiter whose remaining deadline budget cannot
//     cover the expected service time (an EWMA of observed latency) is
//     evicted with ErrDoomed instead of burning a slot on an answer nobody
//     will wait for. Eviction happens both at enqueue and again at
//     dispatch, because the queue wait itself consumes budget. Under
//     sustained overload (the queue continuously occupied longer than
//     LIFOAfter) dispatch flips from FIFO to LIFO: the freshest request has
//     the most deadline budget left and the best chance of a useful answer,
//     while the old head of a FIFO queue under overload is usually already
//     doomed.
//
//   - Load-derived Retry-After. The hint on shed responses is computed from
//     the live queue depth and the measured drain rate (completions per
//     second) — "come back when the queue you would join has drained" —
//     instead of a constant. With no drain-rate signal yet it falls back to
//     the configured constant.
//
//   - Brownout tiers. From queue pressure the controller derives a tier
//     (0 = normal, 1 = pressured, 2 = saturated) with hysteresis on the way
//     down. The server couples tiers to the engine's deadline: tier 1
//     shortens the deadline of queued requests, tier 2 of everyone, so
//     refinement stops early — shedding work before deadlines force it.
//
// The controller is a single mutex-guarded state machine. Admission and
// completion both take the lock; at the concurrency levels the limiter
// itself enforces (tens to low thousands in flight) the lock is never the
// bottleneck — the queries behind it are milliseconds each.
package overload

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// ErrShed is returned by Acquire when both the execution slots and the wait
// queue are full: the request must be refused now (HTTP 503), it can not
// even wait.
var ErrShed = errors.New("overload: server saturated, request shed")

// ErrDoomed is returned by Acquire when the request's remaining deadline
// budget cannot cover the expected service time: running it would burn a
// slot producing an answer that misses its deadline anyway, so it is
// refused immediately (HTTP 504) without holding a slot.
var ErrDoomed = errors.New("overload: deadline budget below expected service time, evicted from queue")

// Config tunes a Controller. Only Limit is required; every other field has
// a serviceable default.
type Config struct {
	// Limit is the initial concurrency limit (and the permanent one when
	// Ceiling == 0). Must be > 0.
	Limit int
	// Floor and Ceiling bound the adaptive limit. Ceiling > 0 enables
	// adaptation; Floor defaults to 1. With Ceiling == 0 the limit is fixed.
	Floor, Ceiling int
	// MaxQueue bounds how many requests may wait for a slot; beyond it
	// Acquire sheds. 0 disables queueing entirely (immediate shed at the
	// limit).
	MaxQueue int
	// Tolerance is the latency inflation factor the limiter forgives before
	// backing off: the window mean may reach baseline*Tolerance. Default 2.
	Tolerance float64
	// Backoff is the multiplicative decrease applied to the limit when
	// latency inflates past tolerance. Default 0.9.
	Backoff float64
	// AdjustWindow is the adjustment cadence: baseline/limit updates happen
	// at most once per window, and only with enough samples. Default 100ms.
	AdjustWindow time.Duration
	// MinWindowSamples is the minimum completions a window needs before the
	// limiter acts on it. Default 8.
	MinWindowSamples int
	// LIFOAfter is how long the queue must stay continuously occupied
	// before dispatch flips from FIFO to LIFO. Default 500ms.
	LIFOAfter time.Duration
	// RetryAfterFallback is the Retry-After hint used before any drain-rate
	// signal exists. Default 1s.
	RetryAfterFallback time.Duration
	// RetryAfterMax caps the computed Retry-After hint. Default 30s.
	RetryAfterMax time.Duration
	// Now overrides the clock (tests). Nil uses time.Now.
	Now func() time.Time
}

// waiter states; transitions happen only under Controller.mu.
const (
	stateWaiting = iota
	stateAdmitted
	stateRejected // evicted (doomed); error already delivered
	stateCanceled // caller's context died while queued
)

type waiter struct {
	ch          chan error // buffered(1): deliver never blocks the dispatcher
	enqueued    time.Time
	deadline    time.Time
	hasDeadline bool
	state       int
	admittedAt  time.Time
}

// waitHistSize is the queue-wait ring-buffer size backing the /stats
// percentiles. Power of two, sized to hold a few seconds of admissions.
const waitHistSize = 1024

// Controller is the admission state machine. Create with New; a nil
// *Controller is valid and admits everything (overload control disabled).
type Controller struct {
	cfg Config

	mu       sync.Mutex
	limit    int
	inFlight int
	waiters  []*waiter
	queued   int // live (stateWaiting) waiters; len(waiters) includes canceled ones

	congestedSince time.Time // queue continuously occupied since; zero when empty
	tier           int
	enter1, enter2 int // tier entry thresholds (queue depth)
	exit1, exit2   int // tier exit thresholds (hysteresis)

	// Latency model, all under mu.
	baseline    time.Duration // no-queue service time (windowed min, slow upward drift)
	expected    time.Duration // EWMA of service time — the eviction yardstick
	windowMin   time.Duration
	windowSum   time.Duration
	windowCount int
	windowStart time.Time
	drainRate   float64 // completions per second, EWMA across windows

	// Queue-wait history ring for p50/p99.
	waitRing  [waitHistSize]int64
	waitIdx   int
	waitCount uint64

	// Counters, under mu (read through Snapshot).
	evictedTotal uint64
	probeTotal   uint64
	backoffTotal uint64
	queuedServed uint64 // admissions that waited in the queue first
	lifoDispatch uint64 // dispatches made in LIFO order
	peakQueue    int
	limitMaxSeen int
	limitMinSeen int
}

// New builds a Controller. A cfg.Limit <= 0 returns nil — the disabled
// controller, whose methods all no-op/admit.
func New(cfg Config) *Controller {
	if cfg.Limit <= 0 {
		return nil
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.Ceiling > 0 {
		if cfg.Floor <= 0 {
			cfg.Floor = 1
		}
		if cfg.Ceiling < cfg.Floor {
			cfg.Ceiling = cfg.Floor
		}
		if cfg.Limit < cfg.Floor {
			cfg.Limit = cfg.Floor
		}
		if cfg.Limit > cfg.Ceiling {
			cfg.Limit = cfg.Ceiling
		}
	}
	if cfg.Tolerance <= 1 {
		cfg.Tolerance = 2.0
	}
	if cfg.Backoff <= 0 || cfg.Backoff >= 1 {
		cfg.Backoff = 0.9
	}
	if cfg.AdjustWindow <= 0 {
		cfg.AdjustWindow = 100 * time.Millisecond
	}
	if cfg.MinWindowSamples <= 0 {
		cfg.MinWindowSamples = 8
	}
	if cfg.LIFOAfter <= 0 {
		cfg.LIFOAfter = 500 * time.Millisecond
	}
	if cfg.RetryAfterFallback <= 0 {
		cfg.RetryAfterFallback = time.Second
	}
	if cfg.RetryAfterMax <= 0 {
		cfg.RetryAfterMax = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Controller{
		cfg:          cfg,
		limit:        cfg.Limit,
		windowStart:  cfg.Now(),
		limitMaxSeen: cfg.Limit,
		limitMinSeen: cfg.Limit,
	}
	// Brownout thresholds from queue capacity: enter tier 1 at half a queue,
	// tier 2 at three quarters; exit with hysteresis at a quarter / a half so
	// the tier does not flap at the boundary. MaxQueue == 0 leaves both
	// entries unreachable (nothing ever queues), disabling brownout.
	c.enter1 = (cfg.MaxQueue + 1) / 2
	c.enter2 = (3*cfg.MaxQueue + 3) / 4
	c.exit1 = cfg.MaxQueue / 4
	c.exit2 = cfg.MaxQueue / 2
	if cfg.MaxQueue == 0 {
		c.enter1, c.enter2 = 1<<30, 1<<30
	}
	return c
}

// Acquire claims an execution slot, waiting in the bounded deadline-aware
// queue when the limit is reached. On success it returns a release func
// (call exactly once, when the request finishes — it records the service
// latency the limiter adapts on) and how long the request waited queued.
// Errors: ErrShed (queue full), ErrDoomed (deadline budget below expected
// service time), or ctx.Err() when the caller's context dies while queued.
// A nil Controller admits immediately.
func (c *Controller) Acquire(ctx context.Context) (release func(), waited time.Duration, err error) {
	if c == nil {
		return func() {}, 0, nil
	}
	now := c.cfg.Now()
	deadline, hasDeadline := ctx.Deadline()

	c.mu.Lock()
	if c.queued > 0 && c.inFlight < c.limit {
		// A limit raise can leave free slots with queued waiters; they go
		// first — the newcomer does not jump the queue.
		c.dispatchLocked(now)
	}
	if c.inFlight < c.limit && c.queued == 0 {
		c.inFlight++
		c.mu.Unlock()
		return c.releaseFunc(now), 0, nil
	}
	if c.queued >= c.cfg.MaxQueue {
		c.mu.Unlock()
		return nil, 0, ErrShed
	}
	if hasDeadline && c.expected > 0 && deadline.Sub(now) < c.expected {
		// Doomed on arrival: even with an instant slot the expected service
		// time overruns the deadline. Refuse now, free of charge.
		c.evictedTotal++
		c.mu.Unlock()
		return nil, 0, ErrDoomed
	}
	w := &waiter{
		ch:          make(chan error, 1),
		enqueued:    now,
		deadline:    deadline,
		hasDeadline: hasDeadline,
	}
	c.waiters = append(c.waiters, w)
	c.queued++
	if c.queued > c.peakQueue {
		c.peakQueue = c.queued
	}
	if c.congestedSince.IsZero() {
		c.congestedSince = now
	}
	c.retierLocked()
	c.mu.Unlock()

	select {
	case err := <-w.ch:
		if err != nil {
			return nil, 0, err // evicted while queued (ErrDoomed)
		}
		c.mu.Lock()
		c.queuedServed++
		admittedAt := w.admittedAt
		c.mu.Unlock()
		return c.releaseFunc(admittedAt), admittedAt.Sub(w.enqueued), nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.state == stateAdmitted {
			// Lost the race: the dispatcher granted the slot as the context
			// died. Give the slot straight back (no latency sample — the
			// request never ran).
			c.inFlight--
			c.dispatchLocked(c.cfg.Now())
			c.mu.Unlock()
			return nil, 0, ctx.Err()
		}
		if w.state == stateWaiting {
			w.state = stateCanceled
			c.queued--
			c.queueDrainedLocked()
			c.retierLocked()
		}
		c.mu.Unlock()
		return nil, 0, ctx.Err()
	}
}

// releaseFunc builds the single-use completion callback for a request
// admitted at start: it records the observed service latency (feeding the
// gradient limiter, the eviction estimate and the drain rate) and hands the
// slot to the next eligible waiter.
func (c *Controller) releaseFunc(start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			now := c.cfg.Now()
			c.mu.Lock()
			c.recordLocked(now, now.Sub(start))
			c.inFlight--
			c.dispatchLocked(now)
			c.mu.Unlock()
		})
	}
}

// dispatchLocked hands free slots to queued waiters — FIFO normally, LIFO
// under sustained overload — evicting waiters whose remaining deadline can
// no longer cover the expected service time. Callers hold c.mu.
func (c *Controller) dispatchLocked(now time.Time) {
	lifo := !c.congestedSince.IsZero() && now.Sub(c.congestedSince) >= c.cfg.LIFOAfter
	for c.inFlight < c.limit {
		w := c.popLocked(lifo)
		if w == nil {
			break
		}
		c.queued--
		if w.hasDeadline && c.expected > 0 && w.deadline.Sub(now) < c.expected {
			w.state = stateRejected
			c.evictedTotal++
			w.ch <- ErrDoomed
			continue
		}
		if lifo {
			c.lifoDispatch++
		}
		w.state = stateAdmitted
		w.admittedAt = now
		c.recordWaitLocked(now.Sub(w.enqueued))
		c.inFlight++
		w.ch <- nil
	}
	c.queueDrainedLocked()
	c.retierLocked()
}

// popLocked removes and returns the next live waiter in the given order,
// discarding canceled entries. Callers hold c.mu.
func (c *Controller) popLocked(lifo bool) *waiter {
	for len(c.waiters) > 0 {
		var w *waiter
		if lifo {
			w = c.waiters[len(c.waiters)-1]
			c.waiters = c.waiters[:len(c.waiters)-1]
		} else {
			w = c.waiters[0]
			c.waiters = c.waiters[1:]
		}
		if w.state != stateWaiting {
			continue // canceled; its count was already removed
		}
		return w
	}
	return nil
}

// queueDrainedLocked resets the sustained-overload clock once the queue is
// empty: the next congestion episode starts its LIFO countdown afresh.
func (c *Controller) queueDrainedLocked() {
	if c.queued == 0 {
		c.congestedSince = time.Time{}
		// Compact away any canceled stragglers so the slice does not pin
		// dead waiters until the next dispatch.
		c.waiters = c.waiters[:0]
	}
}

// retierLocked recomputes the brownout tier from queue depth, with
// hysteresis: entering a tier is eager, leaving one requires the queue to
// fall well below the entry threshold.
func (c *Controller) retierLocked() {
	q := c.queued
	switch c.tier {
	case 0:
		if q >= c.enter2 {
			c.tier = 2
		} else if q >= c.enter1 {
			c.tier = 1
		}
	case 1:
		if q >= c.enter2 {
			c.tier = 2
		} else if q <= c.exit1 {
			c.tier = 0
		}
	case 2:
		if q <= c.exit1 {
			c.tier = 0
		} else if q <= c.exit2 {
			c.tier = 1
		}
	}
}

// recordLocked folds one completed request's service latency into the
// latency model and, at window boundaries, adjusts the limit: additive
// probe while the window mean tracks the no-queue baseline, multiplicative
// backoff when it inflates. Callers hold c.mu.
func (c *Controller) recordLocked(now time.Time, lat time.Duration) {
	if lat < 0 {
		lat = 0
	}
	// Expected service time: EWMA, alpha 1/8 — smooth enough to ignore one
	// outlier, fresh enough to follow a brownout's cheaper answers down.
	if c.expected == 0 {
		c.expected = lat
	} else {
		c.expected += (lat - c.expected) / 8
	}
	if c.windowCount == 0 || lat < c.windowMin {
		c.windowMin = lat
	}
	c.windowSum += lat
	c.windowCount++

	elapsed := now.Sub(c.windowStart)
	if elapsed < c.cfg.AdjustWindow || c.windowCount < c.cfg.MinWindowSamples {
		return
	}
	// Drain rate across the closing window, EWMA-smoothed.
	rate := float64(c.windowCount) / elapsed.Seconds()
	if c.drainRate == 0 {
		c.drainRate = rate
	} else {
		c.drainRate = 0.7*c.drainRate + 0.3*rate
	}
	// Baseline: snap down to any new minimum, drift up slowly (1/64 of the
	// gap per window, ~6s time constant at the default cadence) so a
	// permanently costlier corpus is eventually accepted as the new normal
	// — but a transient storm, whose inflated minima would re-baseline a
	// faster drift, keeps reading as overload for its whole duration.
	if c.baseline == 0 || c.windowMin < c.baseline {
		c.baseline = c.windowMin
	} else {
		c.baseline += (c.windowMin - c.baseline) / 64
	}
	if c.cfg.Ceiling > 0 {
		mean := c.windowSum / time.Duration(c.windowCount)
		if float64(mean) <= float64(c.baseline)*c.cfg.Tolerance {
			// Latency tracks the no-queue baseline: probe upward. The step
			// scales gently with the limit so big deployments converge in
			// seconds, small ones move by 1.
			step := c.limit / 16
			if step < 1 {
				step = 1
			}
			if next := c.limit + step; next <= c.cfg.Ceiling {
				c.limit = next
			} else {
				c.limit = c.cfg.Ceiling
			}
			c.probeTotal++
			if c.limit > c.limitMaxSeen {
				c.limitMaxSeen = c.limit
			}
			// A raised limit may free slots for queued waiters right now.
			c.dispatchLocked(now)
		} else {
			next := int(float64(c.limit) * c.cfg.Backoff)
			if next >= c.limit {
				next = c.limit - 1
			}
			if next < c.cfg.Floor {
				next = c.cfg.Floor
			}
			if next != c.limit {
				c.limit = next
				c.backoffTotal++
				if c.limit < c.limitMinSeen {
					c.limitMinSeen = c.limit
				}
			}
		}
	}
	c.windowStart = now
	c.windowCount = 0
	c.windowSum = 0
	c.windowMin = 0
}

// recordWaitLocked stores one admission's queue wait in the percentile
// ring. Callers hold c.mu.
func (c *Controller) recordWaitLocked(wait time.Duration) {
	c.waitRing[c.waitIdx] = wait.Nanoseconds()
	c.waitIdx = (c.waitIdx + 1) % waitHistSize
	c.waitCount++
}

// RetryAfterSeconds computes the Retry-After hint from the live queue
// depth and the measured drain rate: roughly how long until the queue a
// retry would join has drained. Without a drain-rate signal it falls back
// to the configured constant; the result is clamped to [1, RetryAfterMax].
func (c *Controller) RetryAfterSeconds() int {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	depth, rate := c.queued, c.drainRate
	c.mu.Unlock()
	var d time.Duration
	if rate <= 0 {
		d = c.cfg.RetryAfterFallback
	} else {
		d = time.Duration(float64(depth+1) / rate * float64(time.Second))
	}
	if d > c.cfg.RetryAfterMax {
		d = c.cfg.RetryAfterMax
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Tier reports the current brownout tier: 0 normal, 1 pressured (queued
// requests should refine briefly), 2 saturated (everything should).
func (c *Controller) Tier() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tier
}

// InFlight reports currently admitted requests.
func (c *Controller) InFlight() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inFlight
}

// Limit reports the current (possibly adapted) concurrency limit.
func (c *Controller) Limit() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Stats is a point-in-time observability snapshot for /stats.
type Stats struct {
	Limit          int     `json:"limit"`
	InFlight       int     `json:"inFlight"`
	QueueDepth     int     `json:"queueDepth"`
	PeakQueue      int     `json:"peakQueue"`
	Tier           int     `json:"brownoutTier"`
	BaselineMs     float64 `json:"baselineMs"`
	ExpectedMs     float64 `json:"expectedMs"`
	DrainRate      float64 `json:"drainRate"`
	QueueWaitP50Ms float64 `json:"queueWaitP50Ms"`
	QueueWaitP99Ms float64 `json:"queueWaitP99Ms"`
	EvictedTotal   uint64  `json:"queueEvictedTotal"`
	ProbeTotal     uint64  `json:"limitProbes"`
	BackoffTotal   uint64  `json:"limitBackoffs"`
	QueuedServed   uint64  `json:"queuedServedTotal"`
	LIFODispatches uint64  `json:"lifoDispatchTotal"`
	LimitMax       int     `json:"limitMax"`
	LimitMin       int     `json:"limitMin"`
}

// Snapshot returns the current Stats. Percentiles sort a copy of the wait
// ring; the call is meant for /stats cadence, not per-request hot paths. A
// nil Controller returns the zero Stats.
func (c *Controller) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	s := Stats{
		Limit:          c.limit,
		InFlight:       c.inFlight,
		QueueDepth:     c.queued,
		PeakQueue:      c.peakQueue,
		Tier:           c.tier,
		BaselineMs:     float64(c.baseline) / 1e6,
		ExpectedMs:     float64(c.expected) / 1e6,
		DrainRate:      c.drainRate,
		EvictedTotal:   c.evictedTotal,
		ProbeTotal:     c.probeTotal,
		BackoffTotal:   c.backoffTotal,
		QueuedServed:   c.queuedServed,
		LIFODispatches: c.lifoDispatch,
		LimitMax:       c.limitMaxSeen,
		LimitMin:       c.limitMinSeen,
	}
	n := int(c.waitCount)
	if n > waitHistSize {
		n = waitHistSize
	}
	waits := make([]int64, n)
	copy(waits, c.waitRing[:n])
	c.mu.Unlock()
	if n > 0 {
		sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
		s.QueueWaitP50Ms = float64(waits[n/2]) / 1e6
		s.QueueWaitP99Ms = float64(waits[(n-1)*99/100]) / 1e6
	}
	return s
}
