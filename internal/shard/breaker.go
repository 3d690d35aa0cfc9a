package shard

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Per-shard circuit breaker. The fan-out consults the breaker before
// dispatching to a shard: a shard that has failed BreakerThreshold times in a
// row stops receiving queries (open) until a jittered backoff elapses, after
// which exactly one query is let through as a probe (half-open). A successful
// probe closes the breaker and resets the backoff; a failed probe re-opens it
// with the backoff doubled (capped at BreakerMaxBackoff). All state is
// atomic — the fan-out path takes no lock — and the router surfaces it
// through Health().
//
// Breakers protect the service, not the answer: an open breaker converts a
// shard that would burn the whole request budget into an instant
// shard-failure, so the merge proceeds over the survivors and the response
// is marked partial. Whether a partial answer is acceptable at all is the
// quorum knob's decision (Resilience.MinShardQuorum).

// Breaker states, in the order they cycle: closed → open → half-open →
// {closed, open}.
const (
	stClosed int32 = iota
	stOpen
	stHalfOpen
)

// BreakerState is the observable state of one shard's breaker.
type BreakerState string

const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// origin anchors now(). time.Since reads the monotonic clock, so a step of
// the wall clock neither stretches nor cuts short an open breaker's backoff.
var origin = time.Now()

// now is the breaker's clock: monotonic nanoseconds since origin.
func now() int64 { return int64(time.Since(origin)) }

type breaker struct {
	threshold int           // consecutive failures to open; <= 0 disables
	base      time.Duration // first open interval
	max       time.Duration // backoff growth cap

	state     atomic.Int32 // stClosed / stOpen / stHalfOpen
	fails     atomic.Int64 // consecutive failures since the last success
	until     atomic.Int64 // now() until which open refuses probes
	backoff   atomic.Int64 // current un-jittered open interval, ns
	failTotal atomic.Uint64
	openTotal atomic.Uint64
}

func newBreaker(res Resilience) *breaker {
	threshold := res.BreakerThreshold
	if threshold == 0 {
		threshold = defaultBreakerThreshold
	}
	base := res.BreakerBackoff
	if base <= 0 {
		base = defaultBreakerBackoff
	}
	max := res.BreakerMaxBackoff
	if max < base {
		max = defaultBreakerMaxBackoff
		if max < base {
			max = base
		}
	}
	return &breaker{threshold: threshold, base: base, max: max}
}

// allow reports whether the shard may be dispatched to, and whether this
// dispatch is the half-open probe (the caller must report the probe's outcome
// via success(true)/failure(true)).
func (b *breaker) allow() (ok, probe bool) {
	if b.threshold <= 0 {
		return true, false
	}
	switch b.state.Load() {
	case stClosed:
		return true, false
	case stOpen:
		// Backoff elapsed: exactly one caller wins the CAS and probes; the
		// rest keep skipping until the probe settles.
		if now() >= b.until.Load() && b.state.CompareAndSwap(stOpen, stHalfOpen) {
			return true, true
		}
		return false, false
	default: // half-open, probe in flight
		return false, false
	}
}

// success records a completed shard call. A successful probe closes the
// breaker and resets the backoff schedule.
func (b *breaker) success(probe bool) {
	if b.threshold <= 0 {
		return
	}
	b.fails.Store(0)
	if probe {
		b.backoff.Store(0)
		b.state.Store(stClosed)
	}
}

// failure records a failed shard call (error, budget timeout, panic) and
// reports whether this failure opened the breaker. A failed probe re-opens
// immediately with the backoff doubled; in the closed state the
// consecutive-failure counter must reach the threshold first.
func (b *breaker) failure(probe bool) (opened bool) {
	if b.threshold <= 0 {
		return false
	}
	b.failTotal.Add(1)
	b.fails.Add(1)
	if probe {
		b.open()
		return true
	}
	// CAS through half-open rather than straight to open: half-open refuses
	// every allow(), so no concurrent caller can observe the open state
	// before open() has stored the backoff and `until`. Publishing stOpen
	// first would let a racing allow() win the probe CAS against a stale
	// (zero) `until` and hit the just-failed shard again instantly.
	if b.fails.Load() >= int64(b.threshold) && b.state.CompareAndSwap(stClosed, stHalfOpen) {
		b.open()
		return true
	}
	return false
}

// open transitions to the open state with the backoff doubled (clamped to
// [base, max]).
func (b *breaker) open() {
	b.openTotal.Add(1)
	b.rearm(2 * b.backoff.Load())
}

// abortProbe returns a half-open breaker to the open state without judging
// the shard. The fan-out calls it when the parent request dies while the
// probe is in flight: the cancel cut the probe short, so its outcome says
// nothing about the shard — no failure is recorded, the backoff is not
// doubled, and the next probe fires after the current interval again.
// Without this settle path the breaker would stay half-open forever: allow()
// refuses every dispatch while a probe is in flight, and only the probe's
// outcome transitions out of half-open.
func (b *breaker) abortProbe() {
	if b.threshold <= 0 {
		return
	}
	b.rearm(b.backoff.Load())
}

// rearm stores the (clamped) backoff interval and its jittered `until`, then
// publishes the open state — in that order, so a concurrent allow() can
// never observe stOpen with a stale `until`. Jitter spreads the half-open
// probes of breakers that tripped together, so a recovered shard is not hit
// by every router's probe at once.
func (b *breaker) rearm(interval int64) {
	if interval < int64(b.base) {
		interval = int64(b.base)
	}
	if interval > int64(b.max) {
		interval = int64(b.max)
	}
	b.backoff.Store(interval)
	wait := interval/2 + rand.Int63n(interval/2+1)
	b.until.Store(now() + wait)
	b.state.Store(stOpen)
}

// snapshot reads the breaker's observable state for Health().
func (b *breaker) snapshot() (state BreakerState, consecutive int, failures, opens uint64, retryIn time.Duration) {
	if b.threshold <= 0 {
		return BreakerClosed, 0, b.failTotal.Load(), 0, 0
	}
	switch b.state.Load() {
	case stOpen:
		state = BreakerOpen
		if d := time.Duration(b.until.Load() - now()); d > 0 {
			retryIn = d
		}
	case stHalfOpen:
		state = BreakerHalfOpen
	default:
		state = BreakerClosed
	}
	return state, int(b.fails.Load()), b.failTotal.Load(), b.openTotal.Load(), retryIn
}
