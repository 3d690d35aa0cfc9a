package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videorec"
	"videorec/internal/faults"
)

// Fault-injection suite for the scatter-gather path: per-shard budgets,
// partial answers under quorum, breaker lifecycle through the router, the
// transactional drain, and a race-enabled chaos run mixing all of them with
// concurrent queries, updates and a drain.

// buildRouter ingests the fixture into a fresh n-shard router and builds it.
func buildRouter(t *testing.T, f *fixture, n int, opts videorec.Options) *Router {
	t.Helper()
	r, err := New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, f, r.Add)
	r.Build()
	return r
}

// buildRef ingests the fixture into a single reference engine and builds it.
func buildRef(t *testing.T, f *fixture, opts videorec.Options) *videorec.Engine {
	t.Helper()
	ref := videorec.New(opts)
	ingestAll(t, f, ref.Add)
	ref.Build()
	return ref
}

// ownedIDs maps each live shard to the set of video ids it holds.
func ownedIDs(r *Router) []map[string]bool {
	s := r.set()
	out := make([]map[string]bool, len(s.engines))
	for i, e := range s.engines {
		view, _ := e.CurrentView()
		m := map[string]bool{}
		for _, id := range view.SortedIDs() {
			m[id] = true
		}
		out[i] = m
	}
	return out
}

// fullRanking returns the reference engine's complete ranking for each query
// (topK = corpus size, so every candidate appears with its exact score).
func fullRanking(t *testing.T, ref *videorec.Engine, queries []string) map[string][]videorec.Recommendation {
	t.Helper()
	out := map[string][]videorec.Recommendation{}
	for _, q := range queries {
		full, _, err := ref.RecommendCtx(context.Background(), q, ref.Len())
		if err != nil {
			t.Fatalf("reference ranking for %s: %v", q, err)
		}
		out[q] = full
	}
	return out
}

// partialExpect restricts a full reference ranking to the videos whose
// shards survived — the answer a correct partial merge must produce.
func partialExpect(full []videorec.Recommendation, dead map[string]bool, k int) []videorec.Recommendation {
	var out []videorec.Recommendation
	for _, r := range full {
		if dead[r.VideoID] {
			continue
		}
		out = append(out, r)
		if len(out) == k {
			break
		}
	}
	return out
}

func requireSameList(t *testing.T, label string, got, want []videorec.Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d differs\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

// TestFanOutErrorPartialAnswer: one erroring shard of four drops out of the
// merge, and the partial answer is exactly the reference ranking restricted
// to the surviving shards' videos, marked Degraded with ShardsFailed set.
func TestFanOutErrorPartialAnswer(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	r := buildRouter(t, f, 4, videorec.Options{})
	r.SetResilience(Resilience{MinShardQuorum: 1, BreakerThreshold: -1})
	refFull := fullRanking(t, ref, f.queries)
	owned := ownedIDs(r)

	faults.Arm(SiteForShard(FaultFanOut, 2), faults.Error(nil))
	for _, q := range f.queries {
		got, meta, err := r.RecommendCtx(context.Background(), q, 10)
		if err != nil {
			t.Fatalf("query %s above quorum errored: %v", q, err)
		}
		if !meta.Degraded || meta.ShardsFailed != 1 || meta.ShardsTotal != 4 {
			t.Fatalf("query %s: meta = degraded=%v failed=%d total=%d, want degraded 1/4",
				q, meta.Degraded, meta.ShardsFailed, meta.ShardsTotal)
		}
		requireSameList(t, "partial "+q, got, partialExpect(refFull[q], owned[2], 10))
	}
	if shardFail, _, _ := r.FaultCounters(); shardFail != uint64(len(f.queries)) {
		t.Errorf("shardFailTotal = %d, want %d", shardFail, len(f.queries))
	}
}

// TestFanOutQuorumLoss: below MinShardQuorum the query errors with ErrQuorum
// wrapping the shard causes; the strict default (quorum 0 = all shards)
// turns any single failure into quorum loss.
func TestFanOutQuorumLoss(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	r := buildRouter(t, f, 4, videorec.Options{})

	// Strict default: one failed shard fails the query.
	faults.Arm(SiteForShard(FaultFanOut, 0), faults.Error(nil))
	if _, _, err := r.RecommendCtx(context.Background(), f.queries[0], 10); !errors.Is(err, ErrQuorum) {
		t.Fatalf("strict mode with one failed shard: %v, want ErrQuorum", err)
	} else if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("quorum error does not wrap the shard cause: %v", err)
	}

	// Quorum 3 tolerates one failure but not two.
	r.SetResilience(Resilience{MinShardQuorum: 3, BreakerThreshold: -1})
	if _, meta, err := r.RecommendCtx(context.Background(), f.queries[0], 10); err != nil {
		t.Fatalf("one failure above quorum 3: %v", err)
	} else if meta.ShardsFailed != 1 {
		t.Fatalf("ShardsFailed = %d, want 1", meta.ShardsFailed)
	}
	faults.Arm(SiteForShard(FaultFanOut, 1), faults.Error(nil))
	_, _, err := r.RecommendCtx(context.Background(), f.queries[0], 10)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("two failures under quorum 3: %v, want ErrQuorum", err)
	}
	if _, _, quorumLost := r.FaultCounters(); quorumLost != 2 {
		t.Errorf("quorumLostTotal = %d, want 2", quorumLost)
	}
}

// TestFanOutCancelSurfacesContextError pins the error-mapping satellite: a
// query whose own context died surfaces ctx.Err() — never a shard error —
// and penalizes no breaker.
func TestFanOutCancelSurfacesContextError(t *testing.T) {
	f := loadFixture(t, 21)
	r := buildRouter(t, f, 4, videorec.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.RecommendCtx(ctx, f.queries[0], 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := r.RecommendCtx(dctx, f.queries[0], 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired query: %v, want context.DeadlineExceeded", err)
	}

	if shardFail, breakerOpen, _ := r.FaultCounters(); shardFail != 0 || breakerOpen != 0 {
		t.Errorf("dead contexts counted as shard faults: fail=%d open=%d", shardFail, breakerOpen)
	}
	for _, h := range r.Health() {
		if h.ConsecutiveFails != 0 || h.Breaker != BreakerClosed {
			t.Errorf("shard %d breaker penalized by a dead context: %+v", h.Shard, h)
		}
	}
}

// TestFanOutBudgetSlowShard: with ShardMargin set, a shard slower than its
// budget becomes a shard failure while the request is still alive — the
// query answers partially instead of riding the slow shard to the request
// deadline.
func TestFanOutBudgetSlowShard(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	r := buildRouter(t, f, 4, videorec.Options{})
	r.SetResilience(Resilience{ShardMargin: 450 * time.Millisecond, MinShardQuorum: 1, BreakerThreshold: -1})
	refFull := fullRanking(t, ref, f.queries)
	owned := ownedIDs(r)

	// The shard sleeps past its budget (deadline − margin ≈ 150ms) but well
	// under the request deadline: the fan-out must classify it failed and
	// answer from the other three shards before the request expires.
	faults.Arm(SiteForShard(FaultFanOutSlow, 1), faults.Latency(300*time.Millisecond))
	q := f.queries[0]
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	start := time.Now()
	got, meta, err := r.RecommendCtx(ctx, q, 10)
	if err != nil {
		t.Fatalf("budgeted query errored: %v (after %v)", err, time.Since(start))
	}
	if !meta.Degraded || meta.ShardsFailed != 1 || meta.ShardsTotal != 4 {
		t.Fatalf("meta = degraded=%v failed=%d total=%d, want degraded 1/4",
			meta.Degraded, meta.ShardsFailed, meta.ShardsTotal)
	}
	requireSameList(t, "budget partial", got, partialExpect(refFull[q], owned[1], 10))
	if shardFail, _, _ := r.FaultCounters(); shardFail != 1 {
		t.Errorf("shardFailTotal = %d, want 1", shardFail)
	}
}

// TestFanOutDeadlineMidRefineDegrades: a request deadline that passes
// inside one shard's refinement degrades the answer; it does not fail the
// query. With no ShardMargin every shard runs under the request deadline,
// and the third κJ of the fan-out stalls past it. The other shards answer
// exactly and the stalled one from what it refined, so the query returns a
// full, degraded top 10 with no shard failed, at one P as at four.
func TestFanOutDeadlineMidRefineDegrades(t *testing.T) {
	defer faults.Reset()
	const deadline, omega = 100 * time.Millisecond, 0.7
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	q := f.queries[0]
	exact := map[string]videorec.Recommendation{}
	for _, e := range fullRanking(t, ref, []string{q})[q] {
		exact[e.VideoID] = e
	}
	r := buildRouter(t, f, 4, videorec.Options{})
	r.SetResilience(Resilience{BreakerThreshold: -1})

	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var calls atomic.Int64
			faults.Arm(faults.RefineScore, func() error {
				if calls.Add(1) == 3 {
					time.Sleep(deadline + 50*time.Millisecond)
				}
				return nil
			})
			defer faults.Disarm(faults.RefineScore)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			got, meta, err := r.RecommendCtx(ctx, q, 10)
			label := fmt.Sprintf("procs=%d", procs)
			if err != nil || len(got) != 10 {
				t.Fatalf("%s: %d results, %v; want 10 degraded results", label, len(got), err)
			}
			if !meta.Degraded || meta.ShardsFailed != 0 {
				t.Fatalf("%s: degraded=%v with %d shards failed, want a degraded answer from every shard", label, meta.Degraded, meta.ShardsFailed)
			}
			for i, g := range got {
				if e := exact[g.VideoID]; g != e && (g.Content != 0 || g.Social != e.Social || g.Score != omega*e.Social) {
					t.Fatalf("%s: rank %d is %+v; its exact result is %+v and its lower bound ω·s̃J = %v", label, i, g, e, omega*e.Social)
				}
			}
		}()
	}
}

// TestBreakerOpensAndRecoversThroughRouter drives the breaker lifecycle
// through real queries: consecutive shard failures open the breaker (visible
// in Health), open-breaker queries skip the shard without counting new
// faults, and once the fault is disarmed a half-open probe closes it and
// full bit-identical answers resume.
func TestBreakerOpensAndRecoversThroughRouter(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	r := buildRouter(t, f, 4, videorec.Options{})
	r.SetResilience(Resilience{
		MinShardQuorum:    1,
		BreakerThreshold:  2,
		BreakerBackoff:    40 * time.Millisecond,
		BreakerMaxBackoff: 80 * time.Millisecond,
	})

	faults.Arm(SiteForShard(FaultFanOut, 2), faults.Error(nil))
	for i := 0; i < 2; i++ {
		if _, meta, err := r.RecommendCtx(context.Background(), f.queries[0], 10); err != nil || meta.ShardsFailed != 1 {
			t.Fatalf("query %d: err=%v failed=%d", i, err, meta.ShardsFailed)
		}
	}
	if h := r.Health()[2]; h.Breaker != BreakerOpen || h.ConsecutiveFails != 2 || h.Opens != 1 {
		t.Fatalf("after threshold: health = %+v, want open breaker", h)
	}
	shardFail, breakerOpen, _ := r.FaultCounters()
	if shardFail != 2 || breakerOpen != 1 {
		t.Fatalf("counters after open: fail=%d open=%d, want 2/1", shardFail, breakerOpen)
	}

	// With the breaker open the shard is skipped, still a partial answer but
	// no new fault is counted against it.
	if _, meta, err := r.RecommendCtx(context.Background(), f.queries[0], 10); err != nil || meta.ShardsFailed != 1 {
		t.Fatalf("open-breaker query: err=%v failed=%d", err, meta.ShardsFailed)
	}
	if gotFail, _, _ := r.FaultCounters(); gotFail != shardFail {
		t.Errorf("skip counted as a shard fault: %d -> %d", shardFail, gotFail)
	}

	// Disarm and let the half-open probe recover the shard.
	faults.Disarm(SiteForShard(FaultFanOut, 2))
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, meta, err := r.RecommendCtx(context.Background(), f.queries[0], 10)
		if err == nil && meta.ShardsFailed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: err=%v failed=%d health=%+v", err, meta.ShardsFailed, r.Health()[2])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := r.Health()[2]; h.Breaker != BreakerClosed || h.ConsecutiveFails != 0 {
		t.Fatalf("after recovery: health = %+v, want closed breaker", h)
	}
	requireSameRankings(t, "post-recovery", ref, r, f.queries, nil)
}

// TestBreakerAbortedProbeRecoversThroughRouter pins the dangling-probe
// regression through real queries: when
// the parent request dies while a half-open probe is in flight, the breaker
// must settle back to open (probe rescheduled) instead of sticking
// half-open — where allow() refuses every dispatch and the shard would be
// skipped on all future queries until a topology change.
func TestBreakerAbortedProbeRecoversThroughRouter(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	r := buildRouter(t, f, 2, videorec.Options{})
	r.SetResilience(Resilience{
		MinShardQuorum:    1,
		BreakerThreshold:  1,
		BreakerBackoff:    10 * time.Millisecond,
		BreakerMaxBackoff: 20 * time.Millisecond,
	})

	// Open shard 1's breaker with one injected error.
	faults.Arm(SiteForShard(FaultFanOut, 1), faults.Error(nil))
	if _, meta, err := r.RecommendCtx(context.Background(), f.queries[0], 10); err != nil || meta.ShardsFailed != 1 {
		t.Fatalf("opening query: err=%v failed=%d", err, meta.ShardsFailed)
	}
	if h := r.Health()[1]; h.Breaker != BreakerOpen {
		t.Fatalf("breaker not open after threshold: %+v", h)
	}

	// Swap the error for latency and let the backoff elapse: the next query
	// wins the half-open probe, sleeps past the request deadline, and the
	// parent context dies with the probe still unsettled.
	faults.Disarm(SiteForShard(FaultFanOut, 1))
	faults.Arm(SiteForShard(FaultFanOutSlow, 1), faults.Latency(150*time.Millisecond))
	time.Sleep(25 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := r.RecommendCtx(ctx, f.queries[0], 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe query: err=%v, want context.DeadlineExceeded", err)
	}
	if h := r.Health()[1]; h.Breaker == BreakerHalfOpen {
		t.Fatalf("aborted probe left the breaker half-open: %+v", h)
	}
	// The abort is not evidence against the shard: no fault counted beyond
	// the opening error.
	if shardFail, breakerOpen, _ := r.FaultCounters(); shardFail != 1 || breakerOpen != 1 {
		t.Errorf("aborted probe advanced fault counters: fail=%d open=%d, want 1/1", shardFail, breakerOpen)
	}

	// Disarm: the rescheduled probe must recover the shard to full serving —
	// with the bug, half-open never exits and this loop times out.
	faults.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, meta, err := r.RecommendCtx(context.Background(), f.queries[0], 10)
		if err == nil && meta.ShardsFailed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never recovered after aborted probe: err=%v failed=%d health=%+v",
				err, meta.ShardsFailed, r.Health()[1])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := r.Health()[1]; h.Breaker != BreakerClosed {
		t.Fatalf("after recovery: %+v, want closed", h)
	}
}

// TestQuorumCountsOnlyClosedBreakers pins the readiness accounting: healthy
// counts closed breakers only. A half-open shard refuses every dispatch but
// its single probe, so from a live query's perspective it is still failing
// and must not prop up /readyz.
func TestQuorumCountsOnlyClosedBreakers(t *testing.T) {
	f := loadFixture(t, 21)
	r := buildRouter(t, f, 3, videorec.Options{})
	r.SetResilience(Resilience{MinShardQuorum: 2, BreakerThreshold: 1})

	if required, healthy := r.Quorum(); required != 2 || healthy != 3 {
		t.Fatalf("all-closed quorum = (%d, %d), want (2, 3)", required, healthy)
	}
	s := r.set()
	s.breakers[1].failure(false) // open
	s.breakers[2].state.Store(stHalfOpen)
	if _, healthy := r.Quorum(); healthy != 1 {
		t.Fatalf("healthy = %d with one open and one half-open breaker, want 1", healthy)
	}
}

// TestMergedPartialOrderingGolden pins the merged-partial contract across
// the fused and baseline weights and shard counts: the merge over any surviving shard subset
// equals the single-engine ranking restricted to that subset's videos, in
// the same (score desc, id asc) order.
func TestMergedPartialOrderingGolden(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	for _, vr := range variants {
		vr := vr
		t.Run(vr.name, func(t *testing.T) {
			ref := buildRef(t, f, vr.opts)
			refFull := fullRanking(t, ref, f.queries)
			for _, n := range []int{2, 4} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					r := buildRouter(t, f, n, vr.opts)
					r.SetResilience(Resilience{MinShardQuorum: 1, BreakerThreshold: -1})
					owned := ownedIDs(r)

					// Fail every single shard, and (for n > 2) every shard's
					// complement — the two extremes of subset size.
					var failSets [][]int
					for i := 0; i < n; i++ {
						failSets = append(failSets, []int{i})
						if n > 2 {
							var comp []int
							for j := 0; j < n; j++ {
								if j != i {
									comp = append(comp, j)
								}
							}
							failSets = append(failSets, comp)
						}
					}
					for _, fs := range failSets {
						dead := map[string]bool{}
						for _, i := range fs {
							faults.Arm(SiteForShard(FaultFanOut, i), faults.Error(nil))
							for id := range owned[i] {
								dead[id] = true
							}
						}
						for _, q := range f.queries {
							got, meta, err := r.RecommendCtx(context.Background(), q, 10)
							if err != nil {
								t.Fatalf("failset %v query %s: %v", fs, q, err)
							}
							if meta.ShardsFailed != len(fs) || meta.ShardsTotal != n || !meta.Degraded {
								t.Fatalf("failset %v query %s: meta = degraded=%v %d/%d",
									fs, q, meta.Degraded, meta.ShardsFailed, meta.ShardsTotal)
							}
							requireSameList(t, fmt.Sprintf("failset %v query %s", fs, q),
								got, partialExpect(refFull[q], dead, 10))
						}
						faults.Reset()
					}
				})
			}
		})
	}
}

// TestDrainRollbackOnAddFailure pins the transactional drain against the
// mid-drain ingest failure: the drain must roll back to a bit-identical
// pre-drain router — same shard count, same record set, same rankings, no
// record lost or duplicated — and succeed once the fault clears.
func TestDrainRollbackOnAddFailure(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	r := buildRouter(t, f, 4, videorec.Options{})
	base := t.TempDir() + "/wal"
	if err := r.AttachJournals(base); err != nil {
		t.Fatal(err)
	}
	drainedEng, _ := r.ShardEngine(1)
	wantIDs := fmt.Sprint(r.SortedIDs())
	wantLen := r.Len()

	// Fail mid-way: some records already re-homed, the rest pending — the
	// worst partial state the rollback must unwind. (FailN fails the first n
	// hits; a counter-based handler fails exactly the failAt-th.)
	failAt := drainedEng.Len()/2 + 1
	hits := 0
	faults.Arm(FaultDrainAdd, func() error {
		hits++
		if hits == failAt {
			return faults.ErrInjected
		}
		return nil
	})

	moved, err := r.DrainShard(1)
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("fault-injected drain: moved=%d err=%v, want injected failure", moved, err)
	}
	if moved != 0 {
		t.Errorf("failed drain reported %d moved", moved)
	}
	if r.NumShards() != 4 {
		t.Fatalf("rollback left %d shards, want 4", r.NumShards())
	}
	if r.Len() != wantLen {
		t.Fatalf("rollback lost records: %d videos, want %d", r.Len(), wantLen)
	}
	if got := fmt.Sprint(r.SortedIDs()); got != wantIDs {
		t.Fatalf("rollback changed the record set:\ngot:  %s\nwant: %s", got, wantIDs)
	}
	if attached, _, _, _ := drainedEng.JournalStatus(); !attached {
		t.Error("failed drain closed the drained shard's journal")
	}
	requireSameRankings(t, "post-rollback", ref, r, f.queries, nil)

	// Clear the fault: the same drain now completes, moving every record.
	faults.Reset()
	moved, err = r.DrainShard(1)
	if err != nil {
		t.Fatalf("drain after disarm: %v", err)
	}
	if moved != drainedEng.Len() {
		t.Errorf("drain moved %d records, drained shard held %d", moved, drainedEng.Len())
	}
	if r.NumShards() != 3 || r.Len() != wantLen {
		t.Fatalf("after drain: %d shards %d videos, want 3 shards %d videos", r.NumShards(), r.Len(), wantLen)
	}
	if attached, _, _, _ := drainedEng.JournalStatus(); attached {
		t.Error("successful drain left the drained shard's journal attached")
	}
	requireSameRankings(t, "post-drain", ref, r, f.queries, nil)
}

// TestDrainRollbackOnReindexFailure: the latest possible drain failure —
// every record already re-homed, a survivor's index rebuild fails — still
// rolls back to the exact pre-drain state.
func TestDrainRollbackOnReindexFailure(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	r := buildRouter(t, f, 4, videorec.Options{})
	wantIDs := fmt.Sprint(r.SortedIDs())
	wantLen := r.Len()

	faults.Arm(FaultDrainReindex, faults.FailN(1, nil))
	moved, err := r.DrainShard(2)
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("reindex-failed drain: moved=%d err=%v, want injected failure", moved, err)
	}
	if r.NumShards() != 4 || r.Len() != wantLen {
		t.Fatalf("rollback left %d shards %d videos, want 4 shards %d", r.NumShards(), r.Len(), wantLen)
	}
	if got := fmt.Sprint(r.SortedIDs()); got != wantIDs {
		t.Fatalf("rollback changed the record set:\ngot:  %s\nwant: %s", got, wantIDs)
	}
	requireSameRankings(t, "post-reindex-rollback", ref, r, f.queries, nil)

	faults.Reset()
	if _, err := r.DrainShard(2); err != nil {
		t.Fatalf("drain after disarm: %v", err)
	}
	if r.NumShards() != 3 || r.Len() != wantLen {
		t.Fatalf("after drain: %d shards %d videos, want 3 shards %d", r.NumShards(), r.Len(), wantLen)
	}
	requireSameRankings(t, "post-drain", ref, r, f.queries, nil)
}

// TestShardChaosConcurrentFaults is the race-enabled chaos drill: latency,
// error and panic faults armed across shards while queries, updates and a
// drain run concurrently. Every non-error answer must be either the
// bit-identical full ranking or a correctly-marked partial one, and once the
// faults clear the breakers must recover to full bit-identical serving.
func TestShardChaosConcurrentFaults(t *testing.T) {
	defer faults.Reset()
	f := loadFixture(t, 21)
	ref := buildRef(t, f, videorec.Options{})
	r := buildRouter(t, f, 4, videorec.Options{})
	r.SetResilience(Resilience{
		MinShardQuorum:    2,
		BreakerThreshold:  3,
		BreakerBackoff:    20 * time.Millisecond,
		BreakerMaxBackoff: 40 * time.Millisecond,
	})

	// Reference rankings for the static phase: the full per-query ranking
	// (for score lookups on partial answers) and its top-10 prefix (the
	// bit-identity target for full answers).
	refFull := fullRanking(t, ref, f.queries)
	refTop := map[string][]videorec.Recommendation{}
	refScore := map[string]map[string]float64{}
	for q, full := range refFull {
		top := full
		if len(top) > 10 {
			top = full[:10]
		}
		refTop[q] = top
		m := map[string]float64{}
		for _, rec := range full {
			m[rec.VideoID] = rec.Score
		}
		refScore[q] = m
	}

	// checkShape validates the structural invariants every successful answer
	// must satisfy, chaos or not: no duplicate ids, strict (score desc, id
	// asc) order, partiality marked Degraded, sane shard accounting.
	checkShape := func(phase, q string, out []videorec.Recommendation, meta videorec.RecommendMeta) bool {
		ok := true
		if meta.ShardsFailed > 0 && !meta.Degraded {
			t.Errorf("%s %s: partial answer (failed=%d) not marked degraded", phase, q, meta.ShardsFailed)
			ok = false
		}
		if meta.ShardsFailed < 0 || meta.ShardsFailed >= meta.ShardsTotal && meta.ShardsFailed != 0 {
			t.Errorf("%s %s: shard accounting %d/%d", phase, q, meta.ShardsFailed, meta.ShardsTotal)
			ok = false
		}
		seen := map[string]bool{}
		for i, rec := range out {
			if seen[rec.VideoID] {
				t.Errorf("%s %s: duplicate id %s in merged answer", phase, q, rec.VideoID)
				ok = false
			}
			seen[rec.VideoID] = true
			if i > 0 {
				prev := out[i-1]
				if prev.Score < rec.Score || (prev.Score == rec.Score && prev.VideoID >= rec.VideoID) {
					t.Errorf("%s %s: rank %d out of order: %+v before %+v", phase, q, i, prev, rec)
					ok = false
				}
			}
		}
		return ok
	}

	// Phase A — static corpus under chaos: one shard hard-failing, one
	// panicking every few calls, fleet-wide latency jitter. Full answers
	// must be bit-identical; partial answers must carry exact reference
	// scores in reference order.
	faults.Arm(SiteForShard(FaultFanOut, 1), faults.Error(nil))
	faults.Arm(SiteForShard(FaultFanOut, 2), faults.PanicEvery(4, "chaos: injected shard panic"))
	faults.Arm(FaultFanOutSlow, faults.Latency(200*time.Microsecond))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				q := f.queries[(w+it)%len(f.queries)]
				out, meta, err := r.RecommendCtx(context.Background(), q, 10)
				if err != nil {
					if !errors.Is(err, ErrQuorum) {
						t.Errorf("phase A %s: unexpected error %v", q, err)
					}
					continue
				}
				if !checkShape("phase A", q, out, meta) {
					continue
				}
				if meta.ShardsFailed == 0 {
					if len(out) != len(refTop[q]) {
						t.Errorf("phase A %s: full answer has %d results, want %d", q, len(out), len(refTop[q]))
						continue
					}
					for i := range out {
						if out[i] != refTop[q][i] {
							t.Errorf("phase A %s: full answer rank %d = %+v, want %+v", q, i, out[i], refTop[q][i])
							break
						}
					}
				} else {
					for _, rec := range out {
						if want, held := refScore[q][rec.VideoID]; !held || want != rec.Score {
							t.Errorf("phase A %s: partial answer id %s score %v, reference %v (held=%v)",
								q, rec.VideoID, rec.Score, want, held)
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Phase B — mutate under chaos: updates and a drain race the query
	// traffic. The corpus is in motion, so only the structural invariants
	// hold; queries may also see not-built/not-found windows mid-drain.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for w := 0; w < 3; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				q := f.queries[(w+it)%len(f.queries)]
				out, meta, err := r.RecommendCtx(context.Background(), q, 10)
				if err != nil {
					if !errors.Is(err, ErrQuorum) && !errors.Is(err, videorec.ErrNotBuilt) && !errors.Is(err, videorec.ErrNotFound) {
						t.Errorf("phase B %s: unexpected error %v", q, err)
					}
					continue
				}
				checkShape("phase B", q, out, meta)
			}
		}(w)
	}
	src := f.col.Opts.MonthsSource
	if _, err := r.ApplyUpdates(f.updateBatch(src)); err != nil {
		t.Fatalf("chaos update 1: %v", err)
	}
	if _, err := r.DrainShard(3); err != nil {
		t.Fatalf("chaos drain: %v", err)
	}
	if _, err := r.ApplyUpdates(f.updateBatch(src + 1)); err != nil {
		t.Fatalf("chaos update 2: %v", err)
	}
	close(stop)
	qwg.Wait()

	// Phase C — disarm and recover: the reference replays the same updates,
	// the breakers close via half-open probes, and serving returns to full
	// bit-identity (the drain must not have changed any ranking).
	faults.Reset()
	if _, err := ref.ApplyUpdates(f.updateBatch(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyUpdates(f.updateBatch(src + 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		allFull := true
		for _, q := range f.queries {
			_, meta, err := r.RecommendCtx(context.Background(), q, 10)
			if err != nil || meta.ShardsFailed > 0 {
				allFull = false
			}
		}
		if allFull {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers never recovered after disarm: health=%+v", r.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, h := range r.Health() {
		if h.Breaker != BreakerClosed {
			t.Errorf("shard %d breaker %s after recovery, want closed", h.Shard, h.Breaker)
		}
	}
	requireSameRankings(t, "post-chaos", ref, r, f.queries, nil)
}
