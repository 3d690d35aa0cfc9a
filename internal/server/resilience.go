package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"videorec/internal/overload"
)

// The admission path, back to front: withDeadline stamps the per-request
// query timeout FIRST, so the deadline is visible while the request queues
// — queue wait burns real budget, which is exactly what lets the
// deadline-aware queue evict requests that can no longer make it. admit
// then runs the request through the overload controller: the adaptive
// concurrency limiter, the bounded wait queue, and — under load — the
// brownout tiers that shrink the request's deadline into the engine's
// degrade margin so it answers coarse instead of late.

// overloadStatus maps an admission failure to its HTTP response shape:
// status code, machine-readable reason (distinct 503 bodies: a shed 503
// must not read like a quorum-lost 503), whether the response carries the
// load-derived Retry-After hint, and whether it counts as a true shed.
// Queue-wait context death is the CALLER's outcome, not overload: a
// canceled client maps to 499 and an expired deadline to 504, and neither
// increments the shed counter.
func overloadStatus(err error) (status int, reason string, retryAfter, shed bool) {
	switch {
	case errors.Is(err, overload.ErrShed):
		return http.StatusServiceUnavailable, "shed", true, true
	case errors.Is(err, overload.ErrDoomed):
		return http.StatusGatewayTimeout, "queue_evicted", true, false
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "client_closed", false, false
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline", false, false
	default:
		return http.StatusInternalServerError, "", false, false
	}
}

// admit wraps the expensive query handlers with the overload controller:
// requests run when a slot is free, wait (deadline-aware, adaptively LIFO
// under sustained overload) when the limiter is full, and are refused with
// a load-derived Retry-After when even waiting cannot help. Once admitted,
// the brownout tier may shrink the request's deadline into the engine's
// degrade margin, trading answer quality for staying inside deadlines. A
// nil controller (MaxInFlight <= 0) admits everything.
func (s *Server) admit(next http.HandlerFunc) http.HandlerFunc {
	if s.ctl == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		release, waited, err := s.ctl.Acquire(r.Context())
		if err != nil {
			status, reason, retry, shed := overloadStatus(err)
			if shed {
				s.shed.Add(1)
			}
			if retry {
				w.Header().Set("Retry-After", strconv.Itoa(s.retrySecs()))
			}
			if reason != "" {
				httpErrorReason(w, status, reason, err)
			} else {
				httpError(w, status, err)
			}
			return
		}
		defer release()
		if s.cfg.Brownout {
			// Brownout: tier 1 degrades the requests that already paid a
			// queue wait (they are the marginal load), tier 2 degrades
			// everyone. Shrinking the deadline into the engine's degrade
			// margin reuses the existing coarse path end to end.
			if tier := s.ctl.Tier(); tier >= 2 || (tier >= 1 && waited > 0) {
				s.brownout.Add(1)
				ctx, cancel := context.WithDeadline(r.Context(), time.Now().Add(s.cfg.BrownoutMargin))
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		next(w, r)
	}
}

// retrySecs is the Retry-After hint for refusals: load-derived (queue depth
// over drain rate) when the controller is live, the configured constant
// otherwise.
func (s *Server) retrySecs() int {
	if s.ctl != nil {
		return s.ctl.RetryAfterSeconds()
	}
	return retryAfterSeconds(s.cfg.RetryAfter)
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// withDeadline attaches the per-request query timeout to the request
// context. It runs OUTSIDE admit, so the deadline covers queueing as well
// as execution: the overload controller needs the remaining budget to
// decide whether queueing the request can still produce a useful answer.
func (s *Server) withDeadline(next http.HandlerFunc) http.HandlerFunc {
	if s.cfg.QueryTimeout <= 0 {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		next(w, r.WithContext(ctx))
	}
}

// recoverPanics converts a handler panic into a 500 response and keeps the
// process alive. net/http would also swallow the panic (per-connection
// recover), but without this middleware the client sees a torn connection
// instead of an error body, and nothing counts the event.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// The idiomatic "tear this connection down" signal —
					// net/http handles it; swallowing it here would append
					// an error body to a deliberately aborted response.
					panic(p)
				}
				s.panics.Add(1)
				log.Printf("server: recovered panic in %s %s: %v", r.Method, r.URL.Path, p)
				httpError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}
