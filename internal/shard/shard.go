// Package shard partitions the corpus across N independent engines and
// serves queries by scatter-gather: each shard owns a hash slice of the
// videos — its own dense id table, posting lists, LSB trees, journal and
// COW view — and a query fans out to every shard's published view in
// parallel, with the per-shard top-K merged under the engine's (score desc,
// id asc) total order.
//
// The merged ranking is bit-identical to a single engine holding the whole
// corpus. Two properties carry that guarantee:
//
//   - The social machinery is global: every shard points at one social
//     state (graph, partition, hash table, dictionary). Build builds it once
//     over the union of every shard's capped audience map; an update batch
//     derives the whole corpus's edge list once, reading each commented
//     video's audience on the shard that holds it, and runs the Figure 5
//     pass once — so per-shard SAR scores equal single-engine SAR scores.
//
//   - Scoring is pointwise. A candidate's fused FJ depends only on the query
//     and its own record (plus the shared social machinery), never on which
//     other videos share its shard; each shard's local top-K therefore
//     contains every global winner stored there, and the merge selects
//     exactly the single-engine ranking.
//
// One honest caveat: when the per-shard candidate budgets (ContentProbe,
// CandidateLimit) bind, each shard refines a full budget of its own
// candidates, so the sharded gather covers a superset of the single-engine
// candidate set — recall can only improve, but a ranking assembled from a
// larger refined pool may differ from the budget-starved single-engine one.
// The golden tests pin the unbound regime.
package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/faults"
	"videorec/internal/topk"
)

// Fault-injection sites inside the scatter-gather path. The per-shard form
// (SiteForShard) lets a test or drill arm exactly one shard — the realistic
// failure shape: one machine is slow or down, not the whole fleet.
const (
	// FaultFanOut fires once per shard per query, before the shard's view is
	// consulted — arm it with Error to fail a shard's answers outright, or
	// with PanicEvery to crash inside the fan-out goroutine (the router
	// recovers the panic into a shard failure).
	FaultFanOut = "shard.fanout"
	// FaultFanOutSlow fires immediately after FaultFanOut — arm it with
	// Latency to make a shard slow enough to blow its per-shard budget.
	// It is a separate site so a drill can combine a fleet-wide error rate
	// with slowness on one shard.
	FaultFanOutSlow = "shard.fanout.slow"
	// FaultDrainAdd fires before each re-homed record is added to a survivor
	// during DrainShard — the mid-drain ingest failure the transactional
	// rollback must survive.
	FaultDrainAdd = "shard.drain.add"
	// FaultDrainReindex fires before each survivor's post-drain Reindex —
	// the late drain failure: every record already moved, index rebuild fails.
	FaultDrainReindex = "shard.drain.reindex"
)

// SiteForShard narrows a fan-out fault site to one shard index:
// SiteForShard(FaultFanOut, 2) = "shard.fanout.2". Both the generic and the
// per-shard site fire on every hit, so tests can arm either granularity.
func SiteForShard(site string, i int) string {
	return site + "." + strconv.Itoa(i)
}

// Resilience tunes the router's fault-tolerance machinery. The zero value
// enables the circuit breaker at its defaults, requires every shard to
// answer (no partial results), and derives no per-shard budget — the
// behavior matching a deployment that has not opted into degraded answers.
type Resilience struct {
	// ShardMargin is the headroom reserved from the request deadline for the
	// merge: each shard's fan-out call runs under (deadline − margin), so one
	// stuck shard exhausts its own budget — becoming a shard failure the
	// quorum logic can tolerate — while the router still has margin left to
	// merge the survivors and answer inside the request deadline. 0 disables
	// budgets: a stuck shard then rides the request deadline itself.
	ShardMargin time.Duration
	// MinShardQuorum is the minimum number of shards that must answer for a
	// query to succeed. <= 0 requires every shard (any failure fails the
	// query — the strict default); n >= 1 tolerates failures down to n
	// surviving shards, returning the merged partial ranking marked
	// Degraded with ShardsFailed/ShardsTotal set. Below quorum the query
	// fails with ErrQuorum.
	MinShardQuorum int
	// BreakerThreshold is the consecutive-failure count that opens a shard's
	// circuit breaker. 0 uses the default (5); negative disables breakers.
	BreakerThreshold int
	// BreakerBackoff is the first open interval before a half-open probe;
	// it doubles on every failed probe. 0 uses the default (200ms).
	BreakerBackoff time.Duration
	// BreakerMaxBackoff caps the backoff growth. 0 uses the default (5s).
	BreakerMaxBackoff time.Duration
}

// Breaker defaults: open after 5 consecutive failures, probe after 200ms,
// cap the doubling at 5s.
const (
	defaultBreakerThreshold  = 5
	defaultBreakerBackoff    = 200 * time.Millisecond
	defaultBreakerMaxBackoff = 5 * time.Second
)

// quorum resolves the minimum surviving-shard count for n live shards.
func (res *Resilience) quorum(n int) int {
	if res.MinShardQuorum <= 0 {
		return n
	}
	if res.MinShardQuorum > n {
		return n
	}
	return res.MinShardQuorum
}

// ErrQuorum reports a query that lost too many shards: fewer than
// MinShardQuorum answered, so even a partial ranking would be misleading.
// The serving layer maps it to 503 + Retry-After — the shards may be
// recovering behind their breakers.
var ErrQuorum = errors.New("shard: quorum lost")

// Router is the scatter-gather front of a sharded deployment. It satisfies
// the same serving surface as *videorec.Engine (the server's Backend), so a
// deployment scales from one shard to N without touching handlers.
//
// Reads are lock-free: they load the current shard set through an atomic
// pointer and run against each shard's immutable view. Mutations serialize
// behind the router mutex and then behind each shard's own writer lock.
type Router struct {
	mu  sync.Mutex // serializes mutations, build, drain and journal management
	cur atomic.Pointer[shardSet]
	res atomic.Pointer[Resilience]

	// shared records that the shards point at one social state (from Build
	// on, or once shareLocked has run). Guarded by mu.
	shared bool

	// Fault-tolerance counters, monotonic across topology changes (per-shard
	// breakers reset when the topology is republished; these never do).
	shardFailTotal   atomic.Uint64 // shard calls that errored, timed out or panicked
	breakerOpenTotal atomic.Uint64 // closed/half-open → open transitions
	quorumLostTotal  atomic.Uint64 // queries failed because too few shards answered
}

// shardSet is one immutable generation of the shard topology. Drain and add
// publish a new set; in-flight readers keep the set they loaded.
type shardSet struct {
	engines  []*videorec.Engine
	breakers []*breaker // one per engine; reset with the topology
	// epoch counts topology changes (drain, add). It feeds the version
	// fingerprint so a query served by an old topology never shares a cache
	// key with one served by the new.
	epoch uint64
}

// ErrNoShards reports a Router constructed with no engines.
var ErrNoShards = errors.New("shard: router needs at least one shard")

// ErrLastShard reports an attempt to drain the only remaining shard.
var ErrLastShard = errors.New("shard: cannot drain the last shard")

// New creates a router over n fresh engines sharing one configuration.
// Per-shard budgets, the quorum and breaker tuning go through SetResilience.
func New(n int, opts videorec.Options) (*Router, error) {
	if n <= 0 {
		return nil, ErrNoShards
	}
	engines := make([]*videorec.Engine, n)
	for i := range engines {
		engines[i] = videorec.New(opts)
	}
	return NewFromEngines(engines)
}

// NewFromEngines creates a router over existing engines — the load and
// replica paths, where each shard engine was restored separately.
func NewFromEngines(engines []*videorec.Engine) (*Router, error) {
	if len(engines) == 0 {
		return nil, ErrNoShards
	}
	r := &Router{}
	r.res.Store(&Resilience{})
	r.cur.Store(r.newSet(append([]*videorec.Engine(nil), engines...), 0))
	return r, nil
}

// newSet assembles one topology generation with fresh breakers.
func (r *Router) newSet(engines []*videorec.Engine, epoch uint64) *shardSet {
	res := r.res.Load()
	breakers := make([]*breaker, len(engines))
	for i := range breakers {
		breakers[i] = newBreaker(*res)
	}
	return &shardSet{engines: engines, breakers: breakers, epoch: epoch}
}

// SetResilience replaces the router's fault-tolerance configuration. Breaker
// state resets (the thresholds may have changed); the topology, its engines
// and the version fingerprint are untouched.
func (r *Router) SetResilience(res Resilience) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := res
	r.res.Store(&cp)
	s := r.set()
	r.cur.Store(r.newSet(s.engines, s.epoch))
}

// Resilience returns the router's current fault-tolerance configuration.
func (r *Router) Resilience() Resilience {
	return *r.res.Load()
}

// set loads the current shard topology.
func (r *Router) set() *shardSet { return r.cur.Load() }

// shardOf is the placement function: FNV-1a of the video id modulo the live
// shard count. Placement only decides where a video's record lives — scores
// are placement-independent — so after a drain resettles ids under a new
// modulus, rankings are unchanged.
func shardOf(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// owner finds the shard currently holding id (drains can leave videos off
// their hash slot, so a miss on the hash shard falls back to scanning).
// Returns -1 when no shard has it.
func (s *shardSet) owner(id string) int {
	home := shardOf(id, len(s.engines))
	if view, _ := s.engines[home].CurrentView(); view.Has(id) {
		return home
	}
	for i, e := range s.engines {
		if i == home {
			continue
		}
		if view, _ := e.CurrentView(); view.Has(id) {
			return i
		}
	}
	return -1
}

// NumShards reports the live shard count.
func (r *Router) NumShards() int { return len(r.set().engines) }

// ShardEngine resolves a shard index to its engine — the serving layer's
// per-shard introspection hook (per-shard stats, replication endpoints).
func (r *Router) ShardEngine(i int) (*videorec.Engine, bool) {
	s := r.set()
	if i < 0 || i >= len(s.engines) {
		return nil, false
	}
	return s.engines[i], true
}

// Version returns a fingerprint of the serving state: an FNV-1a fold of the
// topology epoch and every shard's view version. Any mutation on any shard,
// and any topology change, yields a new fingerprint — the property
// version-keyed result caches need. Fingerprints identify states (equality
// keying); unlike a single engine's version they are not monotonic.
func (r *Router) Version() uint64 {
	s := r.set()
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s.epoch)
	h.Write(buf[:])
	for _, e := range s.engines {
		_, v := e.CurrentView()
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Len returns the total number of stored clips across shards.
func (r *Router) Len() int {
	n := 0
	for _, e := range r.set().engines {
		n += e.Len()
	}
	return n
}

// Built reports whether every shard's published view is built.
func (r *Router) Built() bool {
	for _, e := range r.set().engines {
		if !e.Built() {
			return false
		}
	}
	return true
}

// SubCommunities returns the SAR dimensionality of the social state the
// shards share, read through the first shard's view.
func (r *Router) SubCommunities() int {
	return r.set().engines[0].SubCommunities()
}

// GraphStats reports the size of the user-interest graph the shards share,
// read through the first shard.
func (r *Router) GraphStats() (users, edges, overlay int) {
	return r.set().engines[0].GraphStats()
}

// AppliedSeq returns the highest journal cursor across shards. Per-shard
// cursors advance independently (a batch touching no video of a shard whose
// edge list is also empty does not claim a sequence there); the maximum is
// the aggregate progress indicator.
func (r *Router) AppliedSeq() uint64 {
	var max uint64
	for _, e := range r.set().engines {
		if s := e.AppliedSeq(); s > max {
			max = s
		}
	}
	return max
}

// Add ingests a clip into its shard: extraction runs outside every lock,
// placement hashes the id, and only the owning shard takes its writer lock.
// A re-ingested id goes back to the shard already holding it, never to a
// second one.
func (r *Router) Add(clip videorec.Clip) error {
	p, err := r.set().engines[0].PrepareClip(clip)
	if err != nil {
		return err
	}
	return r.AddPrepared(p)
}

// AddPrepared routes an already-extracted clip to its shard — the zero-copy
// ingest path for callers (bulk loaders, benchmarks) that extract series and
// descriptors themselves.
func (r *Router) AddPrepared(p videorec.PreparedClip) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set() // re-load under the mutex: a drain may have republished
	target := s.owner(p.ID)
	if target < 0 {
		target = shardOf(p.ID, len(s.engines))
	}
	return s.engines[target].AddPrepared(p)
}

// Remove deletes a stored clip from the shard holding it.
func (r *Router) Remove(clipID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	i := s.owner(clipID)
	if i < 0 {
		return fmt.Errorf("%w: %s", videorec.ErrNotFound, clipID)
	}
	return s.engines[i].Remove(clipID)
}

// Build constructs the social machinery globally: one build over the union
// of every shard's audience map, which every shard then shares and indexes
// its own records against in parallel.
func (r *Router) Build() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buildLocked(r.set())
}

func (r *Router) buildLocked(s *shardSet) {
	videorec.BuildShared(s.engines)
	r.shared = true
}

// shareLocked points the built shards of a restored router (LoadFile,
// NewFromEngines) at one social state, once, after checking that their
// copies agree: after ReplayJournals, or at the first update or drain. A
// disagreement fails the caller and leaves the router unshared.
func (r *Router) shareLocked(s *shardSet) error {
	if r.shared {
		return nil
	}
	for _, e := range s.engines {
		if !e.Built() {
			return nil
		}
	}
	if err := videorec.ShareSocial(s.engines); err != nil {
		return fmt.Errorf("shard: shards restored with diverging social state: %w", err)
	}
	r.shared = true
	return nil
}

// RecommendCtx answers a stored-clip query by scatter-gather: the owning
// shard's view supplies the query, every shard's view runs the unchanged
// gather/refine pipeline against it in parallel, and the per-shard top-K
// merge selects the global winners under (score desc, id asc). Degradation
// is sticky: if any shard answered coarse, the merged ranking is flagged
// degraded.
func (r *Router) RecommendCtx(ctx context.Context, clipID string, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error) {
	s := r.set()
	meta := videorec.RecommendMeta{ViewVersion: r.fingerprint(s)}
	views := make([]*core.View, len(s.engines))
	for i, e := range s.engines {
		views[i], _ = e.CurrentView()
		if !views[i].Built() {
			return nil, meta, videorec.ErrNotBuilt
		}
	}
	var q core.Query
	found := false
	for _, v := range views {
		if qq, ok := v.QueryFor(clipID); ok {
			q, found = qq, true
			break
		}
	}
	if !found {
		return nil, meta, fmt.Errorf("%w: %s", videorec.ErrNotFound, clipID)
	}
	if len(views) > 1 {
		// Key the query's content-index positions once; every shard's forest
		// shares the owner's fingerprint (one configuration), so the fan-out
		// skips per-shard re-embedding — the dominant fixed cost per shard.
		q = views[0].PrimeContentKeys(q)
	}
	return r.fanOut(ctx, s, views, q, topK, clipID, meta)
}

// RecommendBatchCtx answers the requests one after another: answer i is
// exactly RecommendCtx(ctx, reqs[i].ClipID, reqs[i].TopK), one fan-out each,
// like Engine.RecommendBatchCtx — the loop the serving benchmark times
// through server.Backend.
func (r *Router) RecommendBatchCtx(ctx context.Context, reqs []videorec.BatchRequest) []videorec.BatchAnswer {
	answers := make([]videorec.BatchAnswer, len(reqs))
	for i, req := range reqs {
		a := &answers[i]
		a.Results, a.Meta, a.Err = r.RecommendCtx(ctx, req.ClipID, req.TopK)
	}
	return answers
}

// RecommendClipCtx answers an ad-hoc-clip query: extraction and query
// assembly run once (all shards share one configuration), then the same
// scatter-gather as RecommendCtx.
func (r *Router) RecommendClipCtx(ctx context.Context, clip videorec.Clip, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error) {
	s := r.set()
	meta := videorec.RecommendMeta{ViewVersion: r.fingerprint(s)}
	q, err := s.engines[0].NewAdHocQuery(clip)
	if err != nil {
		return nil, meta, err
	}
	views := make([]*core.View, len(s.engines))
	for i, e := range s.engines {
		views[i], _ = e.CurrentView()
		if !views[i].Built() {
			return nil, meta, videorec.ErrNotBuilt
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, meta, err
	}
	if len(views) > 1 {
		q = views[0].PrimeContentKeys(q)
	}
	return r.fanOut(ctx, s, views, q, topK, clip.ID, meta)
}

// fingerprint is Version over an already-loaded shard set.
func (r *Router) fingerprint(s *shardSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s.epoch)
	h.Write(buf[:])
	for _, e := range s.engines {
		_, v := e.CurrentView()
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// shardAnswer is one shard's contribution to a fan-out: its local top-K, or
// the reason it has none.
type shardAnswer struct {
	res     []core.Result
	info    core.RecommendInfo
	err     error
	probe   bool // this call was the shard's half-open breaker probe
	skipped bool // breaker open: the shard was never dispatched to
}

// errBreakerOpen marks a shard skipped because its circuit breaker is open.
var errBreakerOpen = errors.New("shard: circuit breaker open")

// callShard runs one shard's slice of the fan-out: fault sites first (the
// generic and the per-shard form of each), then the unchanged gather/refine
// pipeline against the shard's view. A panic anywhere inside becomes a
// shard failure instead of killing the process — with partial results, one
// crashing shard must degrade the answer, not the service.
func callShard(ctx context.Context, i int, v *core.View, q core.Query, topK int, exclude string) (res []core.Result, info core.RecommendInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("shard: shard %d panicked: %v", i, p)
		}
	}()
	if err := faults.Inject(FaultFanOut); err != nil {
		return nil, info, err
	}
	if err := faults.Inject(SiteForShard(FaultFanOut, i)); err != nil {
		return nil, info, err
	}
	if err := faults.Inject(FaultFanOutSlow); err != nil {
		return nil, info, err
	}
	if err := faults.Inject(SiteForShard(FaultFanOutSlow, i)); err != nil {
		return nil, info, err
	}
	return v.RecommendCtx(ctx, q, topK, exclude)
}

// fanOut runs the query against every view in parallel and merges the
// per-shard rankings, tolerating per-shard failure:
//
//   - every shard call runs under the per-shard budget (request deadline
//     minus Resilience.ShardMargin), so a stuck shard times out while the
//     router still has margin to merge the survivors;
//   - a shard whose breaker is open is skipped outright — its recent history
//     says the call would fail anyway, and skipping is free;
//   - shard failures (error, budget timeout, panic, open breaker) drop that
//     shard's list from the merge; as long as at least
//     Resilience.MinShardQuorum shards answered, the merged partial ranking
//     is returned marked Degraded with ShardsFailed/ShardsTotal set.
//
// A dead parent context is never a shard failure: the query returns
// ctx.Err() so the serving layer maps it to 499/504, and no breaker is
// penalized for a client that walked away — though an in-flight half-open
// probe is settled back to open (backoff unchanged) so the breaker is not
// stuck refusing its shard.
func (r *Router) fanOut(ctx context.Context, s *shardSet, views []*core.View, q core.Query, topK int, exclude string, meta videorec.RecommendMeta) ([]videorec.Recommendation, videorec.RecommendMeta, error) {
	res := r.res.Load()
	meta.ShardsTotal = len(views)

	// Derive the per-shard budget: the time between fan-out start and
	// (deadline − margin), applied per dispatch. In the parallel path every
	// dispatch starts together, so each shard runs under the absolute budget
	// deadline; in the serial path (GOMAXPROCS=1) each shard gets its own
	// window, so one slow shard exhausts only its own budget, not the later
	// shards' — the parent deadline still caps the total. A non-positive
	// budget means the request was nearly dead on arrival; the engines' own
	// degrade machinery is the right tool there.
	var budget time.Duration
	if res.ShardMargin > 0 {
		if d, ok := ctx.Deadline(); ok {
			budget = time.Until(d.Add(-res.ShardMargin))
		}
	}

	answers := make([]shardAnswer, len(views))
	dispatch := func(i int, v *core.View) {
		a := &answers[i]
		ok, probe := s.breakers[i].allow()
		if !ok {
			a.err, a.skipped = errBreakerOpen, true
			return
		}
		a.probe = probe
		callCtx := ctx
		if budget > 0 {
			var cancel context.CancelFunc
			callCtx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		a.res, a.info, a.err = callShard(callCtx, i, v, q, topK, exclude)
	}
	if len(views) == 1 || runtime.GOMAXPROCS(0) == 1 {
		// Single shard — or a single P, where goroutines per shard buy no
		// wall-clock and only pay spawn + scheduling: stay on the calling
		// goroutine. Results are identical either way; only latency differs.
		for i, v := range views {
			if err := ctx.Err(); err != nil {
				// Don't dispatch against a dead context; the classification
				// below surfaces ctx.Err() for the whole query.
				answers[i].err, answers[i].skipped = err, true
				continue
			}
			dispatch(i, v)
		}
	} else {
		var wg sync.WaitGroup
		for i, v := range views {
			wg.Add(1)
			go func(i int, v *core.View) {
				defer wg.Done()
				dispatch(i, v)
			}(i, v)
		}
		wg.Wait()
	}

	failed := 0
	var shardErrs []error
	for i := range answers {
		a := &answers[i]
		if a.err == nil {
			s.breakers[i].success(a.probe)
			if a.info.Degraded {
				meta.Degraded = true
			}
			meta.Candidates += a.info.Candidates
			meta.Refined += a.info.Refined
			continue
		}
		// The parent context dying fails every outstanding shard at once;
		// that is a serving outcome of the whole query, not evidence against
		// any shard. Surface ctx.Err() itself (→ 499/504 upstream) — but
		// settle the remaining answers' breakers first: a dispatched
		// half-open probe left unsettled would refuse its shard forever
		// (allow() admits nothing while a probe is in flight, and only the
		// probe's outcome transitions out of half-open). An aborted probe
		// proved nothing, so it re-arms the open state with the backoff
		// unchanged instead of counting as a failure.
		if ctxErr := ctx.Err(); ctxErr != nil {
			for j := i; j < len(answers); j++ {
				rest := &answers[j]
				switch {
				case rest.err == nil:
					s.breakers[j].success(rest.probe)
				case rest.probe:
					s.breakers[j].abortProbe()
				}
			}
			return nil, meta, ctxErr
		}
		failed++
		if !a.skipped {
			r.shardFailTotal.Add(1)
			if s.breakers[i].failure(a.probe) {
				r.breakerOpenTotal.Add(1)
			}
		}
		shardErrs = append(shardErrs, fmt.Errorf("shard %d: %w", i, a.err))
	}
	if ok := len(views) - failed; ok < res.quorum(len(views)) {
		r.quorumLostTotal.Add(1)
		return nil, meta, fmt.Errorf("%w: %d of %d shards answered, need %d: %w",
			ErrQuorum, ok, len(views), res.quorum(len(views)), errors.Join(shardErrs...))
	}
	if failed > 0 {
		// A partial answer is a degraded answer: correct over the surviving
		// shards' videos, silent about the rest. Serving layers must not
		// cache it.
		meta.Degraded = true
		meta.ShardsFailed = failed
	}
	merged := MergeTopK(topK, func(yield func([]core.Result)) {
		for i := range answers {
			if answers[i].err == nil {
				yield(answers[i].res)
			}
		}
	})
	out := make([]videorec.Recommendation, len(merged))
	for i, res := range merged {
		out[i] = videorec.Recommendation{
			VideoID: res.VideoID,
			Score:   res.Score,
			Content: res.Content,
			Social:  res.Social,
		}
	}
	return out, meta, nil
}

// ShardHealth is one shard's breaker state as surfaced by Router.Health()
// and the serving layer's /stats.
type ShardHealth struct {
	Shard            int          `json:"shard"`
	Breaker          BreakerState `json:"breaker"`
	ConsecutiveFails int          `json:"consecutiveFails"`
	// Failures and Opens count since this topology generation was published
	// (drain, add and SetResilience reset them); the router-level counters
	// are monotonic.
	Failures uint64 `json:"failures"`
	Opens    uint64 `json:"opens"`
	// RetryInMs is how long an open breaker will keep refusing before the
	// next half-open probe; 0 unless open.
	RetryInMs int64 `json:"retryInMs,omitempty"`
}

// Health reports every shard's breaker state — the operator's view of which
// shards the fan-out is currently routing around.
func (r *Router) Health() []ShardHealth {
	s := r.set()
	out := make([]ShardHealth, len(s.breakers))
	for i, b := range s.breakers {
		state, consecutive, failures, opens, retryIn := b.snapshot()
		out[i] = ShardHealth{
			Shard:            i,
			Breaker:          state,
			ConsecutiveFails: consecutive,
			Failures:         failures,
			Opens:            opens,
			RetryInMs:        retryIn.Milliseconds(),
		}
	}
	return out
}

// Quorum reports the minimum shards a query needs and how many are currently
// healthy (breaker closed) — the readiness gate: healthy < required means
// queries are failing with ErrQuorum right now. Half-open counts as
// unhealthy, not healthy: while its probe is in flight the fan-out refuses
// every other dispatch to that shard, so live queries fail it exactly as if
// it were open; the state is transient (the probe settles, or an aborted
// probe re-opens), so readiness recovers as soon as the shard does.
func (r *Router) Quorum() (required, healthy int) {
	s := r.set()
	res := r.res.Load()
	required = res.quorum(len(s.engines))
	for _, b := range s.breakers {
		if state, _, _, _, _ := b.snapshot(); state == BreakerClosed {
			healthy++
		}
	}
	return required, healthy
}

// FaultCounters returns the router's monotonic fault-tolerance counters:
// shard calls failed, breaker open transitions, and queries lost to quorum.
func (r *Router) FaultCounters() (shardFail, breakerOpen, quorumLost uint64) {
	return r.shardFailTotal.Load(), r.breakerOpenTotal.Load(), r.quorumLostTotal.Load()
}

// MergeTopK merges per-shard result lists into one global top-K under
// core.RanksBelow — (score desc, id asc), the order every view selects its
// answer under — so merging local top-Ks of disjoint corpora reproduces the
// single-corpus selection exactly.
func MergeTopK(topK int, lists func(yield func([]core.Result))) []core.Result {
	sel := topk.New(topK, core.RanksBelow)
	lists(func(res []core.Result) {
		for _, r := range res {
			sel.Offer(r)
		}
	})
	return sel.Sorted()
}

// ApplyUpdates runs one maintenance batch over every shard, doing its
// social work once (videorec.ApplyShared) with each commented video read on
// the shard that holds it. Re-vectorization counts sum across shards.
func (r *Router) ApplyUpdates(newComments map[string][]string) (videorec.UpdateSummary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	if err := r.shareLocked(s); err != nil {
		return videorec.UpdateSummary{}, err
	}
	return videorec.ApplyShared(s.engines, s.owner, newComments)
}

// DrainShard takes shard i out of the topology: its videos re-intern into
// the surviving shards (placed by the new modulus), the survivors rebuild
// their derived indexes around the social state they share — read, not
// rebuilt: the maintained partition, table and dictionary stay as they are —
// and finally the drained shard's journal is flushed and closed. Rankings
// are unaffected (scores are placement-independent).
// Returns the number of videos moved. The drained engine is detached, not
// destroyed; its snapshot/journal files are the operator's to archive.
//
// The drain is transactional. Every re-homed record is staged and its
// routing validated before any survivor is touched; the drained shard is
// read, never mutated, until the survivors hold everything (its journal
// closes last). If any mid-drain AddPrepared or Reindex fails, the already
// re-homed records are removed from the survivors, their indexes restored,
// and the original topology republished — the router ends bit-identical to
// its pre-drain state, with no record lost or duplicated.
func (r *Router) DrainShard(i int) (moved int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	if i < 0 || i >= len(s.engines) {
		return 0, fmt.Errorf("shard: no shard %d in a %d-shard router", i, len(s.engines))
	}
	if len(s.engines) == 1 {
		return 0, ErrLastShard
	}
	if err := r.shareLocked(s); err != nil {
		return 0, err
	}
	drained := s.engines[i]
	wasBuilt := drained.Built()

	survivors := make([]*videorec.Engine, 0, len(s.engines)-1)
	survivors = append(survivors, s.engines[:i]...)
	survivors = append(survivors, s.engines[i+1:]...)

	// Stage: convert and route every record before touching anything. A
	// record that cannot be staged — or whose id a survivor somehow already
	// holds (re-homing it would duplicate) — fails the drain here, while the
	// router is still untouched.
	records := drained.ExportRecords()
	staged := make([]videorec.PreparedClip, len(records))
	targets := make([]int, len(records))
	for j, rs := range records {
		p := videorec.PreparedFromRecord(rs)
		if p.ID == "" {
			return 0, fmt.Errorf("shard: drain staging: record %d of shard %d has an empty id", j, i)
		}
		for k, e := range survivors {
			if view, _ := e.CurrentView(); view.Has(p.ID) {
				return 0, fmt.Errorf("shard: drain staging: %s already on surviving shard %d", p.ID, k)
			}
		}
		staged[j], targets[j] = p, shardOf(p.ID, len(survivors))
	}

	// Publish before re-ingesting: from here on, reads see the survivor
	// topology (briefly missing the moving videos, exactly like a snapshot
	// restore mid-ingest) and new Adds place against the new modulus.
	r.cur.Store(r.newSet(survivors, s.epoch+1))

	// rollback undoes a partial re-home: remove whatever was added, restore
	// the survivors' indexes, and republish the original topology (new
	// epoch — in-flight queries may have served against the survivor set).
	// The drained shard was never mutated, so the router is back to its
	// exact pre-drain state.
	rollback := func(added int, cause error) error {
		var errs []error
		touched := map[int]bool{}
		for j := 0; j < added; j++ {
			touched[targets[j]] = true
			if rmErr := survivors[targets[j]].Remove(staged[j].ID); rmErr != nil {
				errs = append(errs, fmt.Errorf("shard: drain rollback of %s: %w", staged[j].ID, rmErr))
			}
		}
		if wasBuilt {
			for k := range touched {
				if riErr := survivors[k].Reindex(); riErr != nil {
					errs = append(errs, fmt.Errorf("shard: drain rollback reindex of shard %d: %w", k, riErr))
				}
			}
		}
		r.cur.Store(r.newSet(s.engines, s.epoch+2))
		if len(errs) > 0 {
			return fmt.Errorf("shard: drain failed AND rollback incomplete: %w", errors.Join(append([]error{cause}, errs...)...))
		}
		return fmt.Errorf("shard: drain rolled back: %w", cause)
	}

	for j, p := range staged {
		if err := faults.Inject(FaultDrainAdd); err != nil {
			return 0, rollback(j, fmt.Errorf("re-home %s: %w", p.ID, err))
		}
		if err := survivors[targets[j]].AddPrepared(p); err != nil {
			return 0, rollback(j, fmt.Errorf("re-home %s: %w", p.ID, err))
		}
	}
	// Re-ingestion marks the receiving shards unbuilt. Restore them by
	// reindexing around the social state they share — NOT by a fresh build:
	// the partition has been incrementally maintained since the last Build,
	// and a fresh sub-community extraction over today's audiences would not
	// reproduce it (maintenance and re-extraction converge differently by
	// design). Reindexing only reads the shared state, so the survivors run
	// it in parallel and post-drain rankings are bit-identical to pre-drain.
	if wasBuilt {
		var wg sync.WaitGroup
		errs := make([]error, len(survivors))
		for k, e := range survivors {
			wg.Add(1)
			go func(k int, e *videorec.Engine) {
				defer wg.Done()
				if errs[k] = faults.Inject(FaultDrainReindex); errs[k] != nil {
					return
				}
				errs[k] = e.Reindex()
			}(k, e)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, rollback(len(staged), fmt.Errorf("reindex survivors: %w", err))
		}
	}
	// Everything the drained shard held is now owned (and indexed) by the
	// survivors: only now is it safe to cut its journal. A close failure at
	// this point is reported but not rolled back — no record is at risk.
	if err := drained.CloseJournal(); err != nil {
		return len(staged), fmt.Errorf("shard: drain journal: %w", err)
	}
	return len(staged), nil
}

// AddShard grows the topology by one empty shard configured like the
// existing ones. Existing videos stay where they are (lookups fall back to
// scanning); only new ingests place against the grown modulus. When the
// deployment is built, it is rebuilt — one social build that every shard,
// the new one included, shares — so the new shard can serve and maintain
// immediately.
func (r *Router) AddShard(opts videorec.Options) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	engines := append(append([]*videorec.Engine(nil), s.engines...), videorec.New(opts))
	next := r.newSet(engines, s.epoch+1)
	r.cur.Store(next)
	if s.engines[0].Built() {
		r.buildLocked(next)
	}
	return len(engines) - 1
}

// manifest is the on-disk description of a sharded snapshot: a tiny JSON
// file at the snapshot path, with each shard's state beside it in
// "<path>.shard<i>".
type manifest struct {
	Format string `json:"format"`
	Shards int    `json:"shards"`
	Epoch  uint64 `json:"epoch"`
}

const manifestFormat = "vrec-shard-manifest"

// ShardPath names shard i's file under a base path — the layout SaveFile
// writes and LoadFile, AttachJournals and ReplayJournals expect.
func ShardPath(base string, i int) string {
	return fmt.Sprintf("%s.shard%d", base, i)
}

// SaveFile persists the deployment: a manifest at path and one snapshot per
// shard beside it. Shard snapshots are written through the engine's atomic
// save; the manifest is written last, so a manifest always names complete
// snapshots.
func (r *Router) SaveFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	for i, e := range s.engines {
		if err := e.SaveFile(ShardPath(path, i)); err != nil {
			return err
		}
	}
	return writeManifest(path, manifest{Format: manifestFormat, Shards: len(s.engines), Epoch: s.epoch})
}

func writeManifest(path string, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dirOf(path), ".vrecshards-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1]
		}
	}
	return "."
}

// LoadFile restores a sharded deployment saved by SaveFile.
func LoadFile(path string) (*Router, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil || m.Format != manifestFormat || m.Shards <= 0 {
		return nil, fmt.Errorf("shard: %s is not a shard manifest", path)
	}
	engines := make([]*videorec.Engine, m.Shards)
	for i := range engines {
		if engines[i], err = videorec.LoadFile(ShardPath(path, i)); err != nil {
			return nil, fmt.Errorf("shard: load shard %d: %w", i, err)
		}
	}
	r, err := NewFromEngines(engines)
	if err != nil {
		return nil, err
	}
	r.cur.Store(r.newSet(r.set().engines, m.Epoch))
	return r, nil
}

// ReplayJournals replays each shard's journal ("<base>.shard<i>") through
// its entry-aware update path, returning the total batches applied. Call
// after LoadFile and before AttachJournals, mirroring the single-engine
// restart sequence. Each shard replays standalone — its entries are
// self-contained, and shard sequence numbers can diverge on edge-less
// batches — and only then do the shards share one social state, after a
// check that their copies agree (an error if they do not). A router whose
// shards already share refuses a journal with batches left to apply
// (videorec.ErrSharedSocial) instead of maintaining them once per shard.
func (r *Router) ReplayJournals(base string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	total := 0
	for i, e := range s.engines {
		n, err := e.ReplayJournal(ShardPath(base, i))
		total += n
		if err != nil {
			return total, fmt.Errorf("shard: replay shard %d journal: %w", i, err)
		}
	}
	return total, r.shareLocked(s)
}

// AttachJournals attaches each shard's journal at "<base>.shard<i>".
func (r *Router) AttachJournals(base string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range r.set().engines {
		if err := e.AttachJournal(ShardPath(base, i)); err != nil {
			return fmt.Errorf("shard: attach shard %d journal: %w", i, err)
		}
	}
	return nil
}

// CloseJournal flushes and detaches every shard's journal.
func (r *Router) CloseJournal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for i, e := range r.set().engines {
		if err := e.CloseJournal(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// SaveFileAndCompact snapshots every shard and compacts its journal at the
// snapshot's cursor, then rewrites the manifest — the sharded form of the
// primary's log-trimming operation. Each shard's snapshot+compact pair is
// atomic under that shard's writer lock.
func (r *Router) SaveFileAndCompact(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.set()
	for i, e := range s.engines {
		if err := e.SaveFileAndCompact(ShardPath(path, i)); err != nil {
			return fmt.Errorf("shard: compact shard %d: %w", i, err)
		}
	}
	return writeManifest(path, manifest{Format: manifestFormat, Shards: len(s.engines), Epoch: s.epoch})
}

// JournalStatus aggregates the shards' journal positions: attached only
// when every shard has a journal, path is the first shard's (the serving
// layer reports per-shard paths via ShardEngine), base is the minimum
// retained base and seq the maximum head.
func (r *Router) JournalStatus() (attached bool, path string, base, seq uint64) {
	engines := r.set().engines
	attached = true
	first := true
	for _, e := range engines {
		a, p, b, q := e.JournalStatus()
		if !a {
			attached = false
			continue
		}
		if path == "" {
			path = p
		}
		if first || b < base {
			base = b
		}
		first = false
		if q > seq {
			seq = q
		}
	}
	return attached, path, base, seq
}

// SortedIDs returns every stored id across shards in one stable order.
func (r *Router) SortedIDs() []string {
	var ids []string
	for _, e := range r.set().engines {
		view, _ := e.CurrentView()
		ids = append(ids, view.SortedIDs()...)
	}
	sort.Strings(ids)
	return ids
}
