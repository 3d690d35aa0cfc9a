// Package server exposes the recommender as a JSON-over-HTTP service — the
// online deployment shape of the paper's system: videos are ingested as
// they are uploaded, anonymous viewers ask for recommendations against the
// clip they are watching, and comment traffic streams through the
// incremental maintenance path.
//
// The serving path is deadline-aware and overload-safe: request contexts
// thread into the engine's EMD refinement workers (a dropped client stops
// burning CPU), an admission controller sheds excess load with 503 +
// Retry-After instead of queueing unboundedly, near-deadline queries answer
// degraded (coarse SAR ranking) rather than timing out, and handler panics
// become 500s without killing the process.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videorec"
	"videorec/internal/faults"
	"videorec/internal/overload"
	"videorec/internal/shard"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// recorded when the client canceled the request before the answer was
// ready; nobody reads the response, but logs and stats should not count it
// as a server fault.
const StatusClientClosedRequest = 499

// Config tunes the serving resilience layer. The zero value disables
// admission control and per-request timeouts (suitable for tests and
// embedded use); cmd/vrecd wires all of it to flags.
type Config struct {
	// SnapshotPath, when non-empty, is where POST /snapshot persists the
	// engine.
	SnapshotPath string
	// MaxInFlight bounds concurrently executing recommendation queries.
	// <= 0 disables admission control. With LimitCeiling set this is the
	// INITIAL limit of the adaptive latency-gradient limiter; otherwise it
	// is fixed.
	MaxInFlight int
	// MaxQueue bounds how many queries may wait for an execution slot before
	// newcomers are shed. 0 with MaxInFlight > 0 defaults to MaxInFlight.
	MaxQueue int
	// LimitFloor / LimitCeiling bound the adaptive concurrency limiter.
	// LimitCeiling > 0 enables adaptation: the limit starts at MaxInFlight,
	// probes additively toward LimitCeiling while observed latency tracks
	// the no-queue baseline, and backs off multiplicatively toward
	// LimitFloor (default 1) when latency inflates. LimitCeiling == 0 keeps
	// the limit fixed at MaxInFlight.
	LimitFloor   int
	LimitCeiling int
	// AdjustWindow tunes the limiter's adjustment cadence (0 = 100ms).
	// Mostly a test/harness knob.
	AdjustWindow time.Duration
	// Brownout couples admission load to the engine's degrade path: under
	// queue pressure (tier 1) queries that waited for a slot — and under
	// saturation (tier 2) every query — run with their deadline shrunk to
	// BrownoutMargin, which sits inside the engine's DegradeMargin, so they
	// answer the coarse social-only ranking (degraded:true, never cached)
	// instead of competing for refinement the server cannot afford.
	Brownout bool
	// BrownoutMargin is the deadline handed to browned-out queries. It must
	// stay below the engine's DegradeMargin (default 20ms) for the coarse
	// path to engage up front. 0 defaults to 10ms.
	BrownoutMargin time.Duration
	// QueryTimeout is the per-request deadline for recommendation queries;
	// 0 means no deadline. The engine degrades (coarse SAR answer) rather
	// than erroring when the deadline is near.
	QueryTimeout time.Duration
	// MaxK caps the k query parameter; 0 defaults to 100.
	MaxK int
	// RetryAfter is the hint sent with shed (503) responses; 0 defaults to
	// 1s.
	RetryAfter time.Duration
	// CacheSize is the result LRU capacity; 0 defaults to 512.
	CacheSize int
	// ReadOnly rejects every state-mutating endpoint (POST /videos, /build,
	// /updates) with 403 — the replica serving mode, where mutations arrive
	// only through journal shipping. POST /snapshot stays available: it
	// persists local state without changing it.
	ReadOnly bool
	// ReadyChecks are additional named conditions /readyz evaluates beyond
	// the built-in view-built gate — journal attachment, replica lag, or
	// anything deployment-specific.
	ReadyChecks []ReadyCheck
}

// Backend is the serving surface the handlers drive — satisfied by a
// single *videorec.Engine and by the scatter-gather shard router, so one
// deployment scales from one shard to N without touching handlers.
// Per-shard introspection (stats, replication endpoints) goes through
// NumShards/ShardEngine; a plain engine is its own single shard.
type Backend interface {
	Add(videorec.Clip) error
	Build()
	RecommendCtx(ctx context.Context, clipID string, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error)
	// RecommendBatchCtx is RecommendCtx over each request in turn. No handler
	// calls it; the serving benchmark times query rounds through it.
	RecommendBatchCtx(ctx context.Context, reqs []videorec.BatchRequest) []videorec.BatchAnswer
	RecommendClipCtx(ctx context.Context, clip videorec.Clip, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error)
	ApplyUpdates(newComments map[string][]string) (videorec.UpdateSummary, error)
	Version() uint64
	Len() int
	SubCommunities() int
	Built() bool
	AppliedSeq() uint64
	SaveFile(path string) error
	SaveFileAndCompact(path string) error
	JournalStatus() (attached bool, path string, base, seq uint64)
	CloseJournal() error
	NumShards() int
	ShardEngine(i int) (*videorec.Engine, bool)
}

// Drainer is the optional shard-drain surface: backends that can take a
// shard out of the topology (the router) expose it; POST /shards/drain
// answers 409 on backends that cannot (a single engine).
type Drainer interface {
	DrainShard(i int) (moved int, err error)
}

// Server wraps an engine with HTTP handlers. Create with New or
// NewWithConfig, mount Handler().
type Server struct {
	eng     Backend
	cfg     Config
	queries atomic.Int64
	cache   *resultCache
	ctl     *overload.Controller // nil when MaxInFlight <= 0

	snapMu sync.Mutex // serializes POST /snapshot

	shed       atomic.Int64 // requests rejected by admission control
	brownout   atomic.Int64 // admitted requests deliberately browned out
	degraded   atomic.Int64 // queries answered with the coarse ranking
	candidates atomic.Int64 // clips gathered for refinement, over computed (not cached) answers
	refined    atomic.Int64 // clips of those that needed a κJ before the top-K was decided
	panics     atomic.Int64 // handler panics recovered

	// lastUpdate is the summary of the most recent successful POST /updates
	// batch; /stats surfaces its maintenance wall time and graph counters.
	lastUpdate atomic.Pointer[videorec.UpdateSummary]
}

// New wraps the engine with default (disabled) resilience settings.
// snapshotPath, when non-empty, is where POST /snapshot persists the
// engine. Stored-clip recommendations are cached in an LRU keyed by the
// engine's view version: mutations publish a new view (bumping the version)
// instead of purging, so hits against the live view keep being served while
// entries of lapsed views age out of the LRU.
func New(eng Backend, snapshotPath string) *Server {
	return NewWithConfig(eng, Config{SnapshotPath: snapshotPath})
}

// NewWithConfig wraps the engine with explicit resilience settings.
func NewWithConfig(eng Backend, cfg Config) *Server {
	if cfg.MaxK <= 0 {
		cfg.MaxK = 100
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 512
	}
	if cfg.MaxInFlight > 0 && cfg.MaxQueue <= 0 {
		cfg.MaxQueue = cfg.MaxInFlight
	}
	if cfg.BrownoutMargin <= 0 {
		cfg.BrownoutMargin = 10 * time.Millisecond
	}
	return &Server{
		eng:   eng,
		cfg:   cfg,
		cache: newResultCache(cfg.CacheSize),
		ctl: overload.New(overload.Config{
			Limit:              cfg.MaxInFlight,
			Floor:              cfg.LimitFloor,
			Ceiling:            cfg.LimitCeiling,
			MaxQueue:           cfg.MaxQueue,
			AdjustWindow:       cfg.AdjustWindow,
			RetryAfterFallback: cfg.RetryAfter,
		}),
	}
}

// ClipJSON is the wire form of videorec.Clip.
type ClipJSON struct {
	ID             string      `json:"id"`
	Title          string      `json:"title,omitempty"`
	FPS            float64     `json:"fps,omitempty"`
	NominalSeconds float64     `json:"nominalSeconds,omitempty"`
	Frames         []FrameJSON `json:"frames"`
	Owner          string      `json:"owner,omitempty"`
	Commenters     []string    `json:"commenters,omitempty"`
}

// FrameJSON is the wire form of one frame.
type FrameJSON struct {
	W   int       `json:"w"`
	H   int       `json:"h"`
	Pix []float64 `json:"pix"`
}

// RecommendResponse is the wire form of a recommendation answer. Degraded
// marks coarse SAR-ranked results returned because the request deadline
// left no room for full EMD refinement — still a usable ranking, but worth
// surfacing to clients that may retry with a longer budget. On a sharded
// backend Degraded also marks partial answers: ShardsFailed of ShardsTotal
// shards did not contribute (errored, blew their budget, or sat behind an
// open breaker), so the ranking is correct over the surviving shards'
// videos and silent about the rest.
type RecommendResponse struct {
	Results      []videorec.Recommendation `json:"results"`
	Degraded     bool                      `json:"degraded"`
	ViewVersion  uint64                    `json:"viewVersion"`
	ShardsFailed int                       `json:"shardsFailed,omitempty"`
	ShardsTotal  int                       `json:"shardsTotal,omitempty"`
}

func (c ClipJSON) clip() videorec.Clip {
	out := videorec.Clip{
		ID:             c.ID,
		Title:          c.Title,
		FPS:            c.FPS,
		NominalSeconds: c.NominalSeconds,
		Owner:          c.Owner,
		Commenters:     c.Commenters,
	}
	for _, f := range c.Frames {
		out.Frames = append(out.Frames, videorec.Frame{W: f.W, H: f.H, Pix: f.Pix})
	}
	return out
}

// Handler returns the service mux:
//
//	POST /videos            ingest a clip (ClipJSON body)
//	POST /build             build the social machinery
//	GET  /recommend?id=&k=  recommend for a stored clip
//	POST /recommend?k=      recommend for an ad-hoc clip (ClipJSON body)
//	POST /updates           apply new comments ({"videoID": ["user", ...]})
//	POST /snapshot          persist the engine to the configured path
//	GET  /stats             engine statistics
//	GET  /healthz           process liveness (always 200)
//	GET  /readyz            serving readiness (503 until every check passes)
//	GET  /replication/snapshot   bootstrap snapshot + cursor headers
//	GET  /replication/tail       long-poll journal entries after a cursor
//
// Recommendation routes run behind the admission controller and the
// per-request deadline; every route runs behind panic recovery. Mutating
// routes run behind the read-only gate (replicas reject them with 403).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /videos", s.mutating(s.handleAddVideo))
	mux.HandleFunc("POST /build", s.mutating(s.handleBuild))
	// Deadline OUTSIDE admission: the query budget must cover queue wait so
	// the overload controller can evict requests that can no longer finish.
	mux.HandleFunc("GET /recommend", s.withDeadline(s.admit(s.handleRecommend)))
	mux.HandleFunc("POST /recommend", s.withDeadline(s.admit(s.handleRecommendClip)))
	mux.HandleFunc("POST /updates", s.mutating(s.handleUpdates))
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /shards/drain", s.mutating(s.handleDrainShard))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /replication/snapshot", s.handleReplicationSnapshot)
	mux.HandleFunc("GET /replication/tail", s.handleReplicationTail)
	return s.recoverPanics(mux)
}

// errReadOnly answers mutating requests on a read-only (replica) server.
var errReadOnly = errors.New("server: read-only replica — mutations arrive via replication only")

// mutating gates a state-changing handler behind Config.ReadOnly.
func (s *Server) mutating(next http.HandlerFunc) http.HandlerFunc {
	if !s.cfg.ReadOnly {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusForbidden, errReadOnly)
	}
}

// maxClipBody caps a POST /videos or POST /recommend clip body. The largest
// clip the repository's tests send — 56 frames of 32×32 pixels
// (video.DefaultSynthOptions), about 19 bytes per pixel as JSON — is
// 1.07 MB; 4 MiB leaves close to 4× headroom, room for about 200 such
// frames.
const maxClipBody = 4 << 20

// maxUpdatesBody caps a POST /updates body. A comment batch is a few bytes
// per comment — a 64-comment batch is a few KB — so 1 MiB holds tens of
// thousands of comments.
const maxUpdatesBody = 1 << 20

// decodeBody decodes a JSON request body of at most limit bytes into v,
// answering 413 for a body over the limit and 400 for any other decode
// failure; it reports whether v was decoded. A refused body never reaches
// the engine.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, fmt.Errorf("decode %s: %w", what, err))
	return false
}

func (s *Server) handleAddVideo(w http.ResponseWriter, r *http.Request) {
	var c ClipJSON
	if !decodeBody(w, r, maxClipBody, "clip", &c) {
		return
	}
	if err := s.eng.Add(c.clip()); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"id": c.ID, "indexed": true, "viewVersion": s.eng.Version()})
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	s.eng.Build()
	writeJSON(w, map[string]any{"subCommunities": s.eng.SubCommunities(), "viewVersion": s.eng.Version()})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if err := faults.Inject(faults.ServerRecommend); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, errors.New("missing id parameter"))
		return
	}
	k, err := s.queryK(r, 10)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	version := s.eng.Version()
	if recs, ok := s.cache.get(cacheKey(version, id, k)); ok {
		s.queries.Add(1)
		writeJSON(w, RecommendResponse{Results: recs, ViewVersion: version})
		return
	}
	// Miss: compute against the live view and store under the version that
	// actually answered (a mutation may have landed since the lookup).
	recs, meta, err := s.eng.RecommendCtx(r.Context(), id, k)
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.observe(meta)
	if !meta.Degraded {
		// Degraded answers are deadline (or shard-failure) artifacts, not
		// view state — caching them would serve coarse or partial results to
		// clients with generous budgets against a healthy fleet.
		s.cache.put(cacheKey(meta.ViewVersion, id, k), recs)
	}
	writeJSON(w, RecommendResponse{
		Results: recs, Degraded: meta.Degraded, ViewVersion: meta.ViewVersion,
		ShardsFailed: meta.ShardsFailed, ShardsTotal: meta.ShardsTotal,
	})
}

// observe folds one computed answer into the /stats counters.
func (s *Server) observe(meta videorec.RecommendMeta) {
	s.queries.Add(1)
	if meta.Degraded {
		s.degraded.Add(1)
	}
	s.candidates.Add(int64(meta.Candidates))
	s.refined.Add(int64(meta.Refined))
}

// queryError maps a recommendation failure to its HTTP response. Quorum
// loss is an overload-shaped outcome — the shards may be recovering behind
// their breakers — so like shed requests it carries the load-derived
// Retry-After hint, but its body says "quorum_lost" where a shed says
// "shed": the client's correct reaction differs (back off versus maybe
// route elsewhere), so the two 503s must not be conflated.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retrySecs()))
		if errors.Is(err, shard.ErrQuorum) {
			httpErrorReason(w, status, "quorum_lost", err)
			return
		}
	}
	httpError(w, status, err)
}

func (s *Server) handleRecommendClip(w http.ResponseWriter, r *http.Request) {
	var c ClipJSON
	if !decodeBody(w, r, maxClipBody, "clip", &c) {
		return
	}
	k, err := s.queryK(r, 10)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	recs, meta, err := s.eng.RecommendClipCtx(r.Context(), c.clip(), k)
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.observe(meta)
	writeJSON(w, RecommendResponse{
		Results: recs, Degraded: meta.Degraded, ViewVersion: meta.ViewVersion,
		ShardsFailed: meta.ShardsFailed, ShardsTotal: meta.ShardsTotal,
	})
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	var comments map[string][]string
	if !decodeBody(w, r, maxUpdatesBody, "comments", &comments) {
		return
	}
	sum, err := s.eng.ApplyUpdates(comments)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	s.lastUpdate.Store(&sum)
	writeJSON(w, sum)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		httpError(w, http.StatusConflict, errors.New("no snapshot path configured"))
		return
	}
	// Serialize snapshots: concurrent POSTs would race on the target path's
	// temp files and hold the engine's writer lock back to back for nothing.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if r.URL.Query().Get("compact") != "" {
		// Snapshot + trim the journal to a marker at the snapshot's cursor,
		// atomically: replicas whose cursor predates the trim heal via 410.
		if err := s.eng.SaveFileAndCompact(s.cfg.SnapshotPath); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		_, _, base, _ := s.eng.JournalStatus()
		writeJSON(w, map[string]any{"saved": s.cfg.SnapshotPath, "compactedTo": base})
		return
	}
	if err := s.eng.SaveFile(s.cfg.SnapshotPath); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]any{"saved": s.cfg.SnapshotPath})
}

// ShardStats is one shard's slice of /stats: its own view version,
// corpus size, journal cursor, and — on a sharded backend — its circuit
// breaker's health. A single-engine deployment reports exactly one, with no
// breaker fields.
type ShardStats struct {
	Shard       int    `json:"shard"`
	Videos      int    `json:"videos"`
	ViewVersion uint64 `json:"viewVersion"`
	AppliedSeq  uint64 `json:"appliedSeq"`
	JournalPath string `json:"journalPath,omitempty"`
	JournalBase uint64 `json:"journalBase"`
	JournalSeq  uint64 `json:"journalSeq"`

	Breaker          shard.BreakerState `json:"breaker,omitempty"`
	ConsecutiveFails int                `json:"consecutiveFails,omitempty"`
	Failures         uint64             `json:"failures,omitempty"`
	BreakerOpens     uint64             `json:"breakerOpens,omitempty"`
	RetryInMs        int64              `json:"retryInMs,omitempty"`
}

// healthReporter is the optional per-shard breaker surface (the router).
type healthReporter interface {
	Health() []shard.ShardHealth
}

// faultCounter is the optional router-level fault-counter surface.
type faultCounter interface {
	FaultCounters() (shardFail, breakerOpen, quorumLost uint64)
}

// quorumReporter is the optional quorum surface: required is the minimum
// number of answering shards for a query to succeed, healthy counts shards
// whose breakers are closed (half-open shards refuse normal dispatch while
// their probe is in flight, so they are not healthy for serving).
type quorumReporter interface {
	Quorum() (required, healthy int)
}

// graphReporter is the optional user-interest-graph size surface; both the
// single engine and the router implement it.
type graphReporter interface {
	GraphStats() (users, edges, overlay int)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.stats()
	_, _, journalBase, journalSeq := s.eng.JournalStatus()
	var health []shard.ShardHealth
	if hr, ok := s.eng.(healthReporter); ok {
		health = hr.Health()
	}
	shards := make([]ShardStats, 0, s.eng.NumShards())
	for i := 0; i < s.eng.NumShards(); i++ {
		e, ok := s.eng.ShardEngine(i)
		if !ok {
			continue
		}
		_, jpath, jbase, jseq := e.JournalStatus()
		st := ShardStats{
			Shard:       i,
			Videos:      e.Len(),
			ViewVersion: e.Version(),
			AppliedSeq:  e.AppliedSeq(),
			JournalPath: jpath,
			JournalBase: jbase,
			JournalSeq:  jseq,
		}
		if i < len(health) {
			h := health[i]
			st.Breaker = h.Breaker
			st.ConsecutiveFails = h.ConsecutiveFails
			st.Failures = h.Failures
			st.BreakerOpens = h.Opens
			st.RetryInMs = h.RetryInMs
		}
		shards = append(shards, st)
	}
	var shardFail, breakerOpen, quorumLost uint64
	if fc, ok := s.eng.(faultCounter); ok {
		shardFail, breakerOpen, quorumLost = fc.FaultCounters()
	}
	var graphUsers, graphEdges, graphOverlay int
	if gr, ok := s.eng.(graphReporter); ok {
		graphUsers, graphEdges, graphOverlay = gr.GraphStats()
	}
	var lastMaintMs float64
	if lu := s.lastUpdate.Load(); lu != nil {
		lastMaintMs = float64(lu.MaintenanceDuration) / float64(time.Millisecond)
	}
	ov := s.ctl.Snapshot()
	writeJSON(w, map[string]any{
		// Aggregates. viewVersion is the backend's fingerprint: a single
		// engine's monotonic counter, or the router's fold of (epoch, every
		// shard version); journalBase/journalSeq aggregate min-base/max-head
		// across shards.
		"videos":          s.eng.Len(),
		"subCommunities":  s.eng.SubCommunities(),
		"viewVersion":     s.eng.Version(),
		"appliedSeq":      s.eng.AppliedSeq(),
		"journalBase":     journalBase,
		"journalSeq":      journalSeq,
		"shards":          shards,
		"readOnly":        s.cfg.ReadOnly,
		"queriesServed":   s.queries.Load(),
		"cacheHits":       hits,
		"cacheMisses":     misses,
		"cacheSize":       size,
		"inFlight":        ov.InFlight,
		"shedTotal":       s.shed.Load(),
		"degradedTotal":   s.degraded.Load(),
		"candidatesTotal": s.candidates.Load(),
		"refinedTotal":    s.refined.Load(),
		"panicsRecovered": s.panics.Load(),
		// Overload control: the live adaptive limit, queue state, and
		// brownout activity. All zero when admission control is off.
		"limit":             ov.Limit,
		"limitProbes":       ov.ProbeTotal,
		"limitBackoffs":     ov.BackoffTotal,
		"queueDepth":        ov.QueueDepth,
		"peakQueue":         ov.PeakQueue,
		"queuedServedTotal": ov.QueuedServed,
		"queueWaitP50Ms":    ov.QueueWaitP50Ms,
		"queueWaitP99Ms":    ov.QueueWaitP99Ms,
		"queueEvictedTotal": ov.EvictedTotal,
		"brownoutTier":      ov.Tier,
		"brownoutTotal":     s.brownout.Load(),
		// Shard fault counters: zero on a single-engine backend.
		"shardFailTotal":   shardFail,
		"breakerOpenTotal": breakerOpen,
		"quorumLostTotal":  quorumLost,
		// User-interest graph size (identical on every shard) and the
		// maintenance wall time of the last POST /updates batch.
		"graphUsers":        graphUsers,
		"graphEdges":        graphEdges,
		"graphOverlay":      graphOverlay,
		"lastMaintenanceMs": lastMaintMs,
	})
}

// handleDrainShard takes one shard out of a sharded backend: ingest to it
// stops, its journal flushes and closes, and its videos re-intern into the
// surviving shards (rankings are placement-independent, so queries are
// unaffected). 409 on a backend that cannot drain (single engine, or the
// last shard).
func (s *Server) handleDrainShard(w http.ResponseWriter, r *http.Request) {
	d, ok := s.eng.(Drainer)
	if !ok {
		httpError(w, http.StatusConflict, errors.New("backend is not sharded — nothing to drain"))
		return
	}
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed shard parameter: %v", err))
		return
	}
	moved, err := d.DrainShard(shard)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]any{
		"drained":     shard,
		"moved":       moved,
		"shards":      s.eng.NumShards(),
		"viewVersion": s.eng.Version(),
	})
}

// statusFor maps engine errors to HTTP statuses. Context errors are serving
// outcomes, not engine faults: a canceled client maps to 499 (nginx
// convention; nobody reads it) and an expired deadline that could not
// degrade maps to 504. Quorum loss must be checked before the context
// errors: the quorum error wraps the per-shard causes, which can include
// budget timeouts (context.DeadlineExceeded), and the client should see the
// retryable 503, not a 504 blamed on its own deadline.
func statusFor(err error) int {
	switch {
	case errors.Is(err, shard.ErrQuorum):
		return http.StatusServiceUnavailable
	case errors.Is(err, videorec.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, videorec.ErrNotBuilt):
		return http.StatusConflict
	case errors.Is(err, videorec.ErrNoFrames), errors.Is(err, videorec.ErrEmptyID):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// queryK parses the k query parameter: absent uses def, malformed or
// non-positive values are a 400-worthy error (they were previously swallowed
// into the default, masking client bugs), and values above the configured
// maximum clamp to it.
func (s *Server) queryK(r *http.Request, def int) (int, error) {
	v := r.URL.Query().Get("k")
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("malformed k parameter %q: %v", v, err)
	}
	if n <= 0 {
		return 0, fmt.Errorf("k parameter must be positive, got %d", n)
	}
	if n > s.cfg.MaxK {
		return s.cfg.MaxK, nil
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// httpErrorReason is httpError plus a machine-readable reason tag, for
// statuses that would otherwise be ambiguous (a shed 503 versus a
// quorum-lost 503, a deadline 504 versus a queue-evicted 504).
func httpErrorReason(w http.ResponseWriter, status int, reason string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "reason": reason})
}
