// Package videorec is an online video recommender for sharing communities,
// reproducing Zhou et al., "Online Video Recommendation in Sharing
// Community" (SIGMOD 2015).
//
// Given a clicked video — no user profile required — the engine returns the
// most relevant videos by fusing two signals (Equation 9 of the paper):
//
//   - content relevance: video cuboid signatures compared with the Earth
//     Mover's Distance, aggregated by the extended Jaccard κJ, which finds
//     matched (near-duplicate / shared-footage) clips even under frame and
//     temporal editing;
//   - social relevance: the Jaccard similarity of the videos' commenter
//     sets, which surfaces relevant clips the content matcher cannot see.
//
// The SAR scheme (sub-community-based approximation relevance) accelerates
// the social side: users are partitioned into k sub-communities over the
// user interest graph, descriptors become k-dimensional histograms, and the
// exact set Jaccard is approximated by a histogram min/max ratio. A chained
// shift-add-xor hash table accelerates the user → sub-community mapping.
// Social updates (new comments) are maintained incrementally.
//
// # Quick start
//
//	eng := videorec.New(videorec.Options{})
//	for _, clip := range clips {
//		eng.Add(clip)
//	}
//	eng.Build()
//	recs, err := eng.Recommend(clickedID, 10)
//
// See examples/ for runnable scenarios and DESIGN.md for the system map.
package videorec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"videorec/internal/core"
	"videorec/internal/social"
	"videorec/internal/store"
	"videorec/internal/video"
)

// Options configures an Engine. The zero value gives the paper's tuned
// parameters: ω = 0.7 and k = 60 sub-communities, served as CSF-SAR-H (SAR
// vectors with the chained hash dictionary).
type Options struct {
	// Omega is the social weight in FJ = (1−ω)·κJ + ω·s̃J. 0 selects the
	// paper's optimum, 0.7; ContentOnly and SocialOnly spell ω = 0 and ω = 1.
	Omega float64
	// SubCommunities is k, the number of sub-communities SAR extracts from
	// the user interest graph (paper optimum: 60).
	SubCommunities int
	// ContentOnly ranks by κJ alone (ω = 0, the CR baseline of the paper).
	ContentOnly bool
	// SocialOnly ranks by social relevance alone (ω = 1, the SR baseline).
	// ContentOnly wins when both are set.
	SocialOnly bool
	// RefineWorkers bounds the worker pool used for step-3 kNN refinement.
	// 0 uses GOMAXPROCS, 1 forces the serial path. Either way the ranking is
	// bit-identical: parallelism changes latency, never results.
	RefineWorkers int
	// DegradeMargin is the deadline headroom below which the Ctx variants of
	// Recommend skip (or abandon) EMD refinement and answer with the coarse
	// SAR ranking, flagged degraded. 0 uses the default (20ms); negative
	// disables degradation so tight deadlines fail with DeadlineExceeded.
	DegradeMargin time.Duration
}

// Frame is one grayscale frame; intensities are clamped to [0, 255].
type Frame struct {
	W, H int
	Pix  []float64 // row-major, length W*H
}

// FrameFromBytes builds a Frame from 8-bit grayscale pixel data (row-major,
// length w*h) — the form decoders and the wire format produce.
func FrameFromBytes(w, h int, pix []byte) (Frame, error) {
	if w <= 0 || h <= 0 || len(pix) != w*h {
		return Frame{}, fmt.Errorf("videorec: %d bytes for a %dx%d frame", len(pix), w, h)
	}
	f := Frame{W: w, H: h, Pix: make([]float64, len(pix))}
	for i, b := range pix {
		f.Pix[i] = float64(b)
	}
	return f, nil
}

// Clip is a video document with its sharing-community context: Q = (q_f,
// q_s) in the paper's notation. Frames carry q_f; Owner and Commenters carry
// q_s.
type Clip struct {
	ID             string
	Title          string
	FPS            float64
	NominalSeconds float64
	Frames         []Frame
	Owner          string
	Commenters     []string
}

// Recommendation is one ranked result with its fused score and the two
// component relevances.
type Recommendation struct {
	VideoID string
	Score   float64
	Content float64
	Social  float64
}

// UpdateSummary reports one incremental maintenance pass (Figure 5).
type UpdateSummary struct {
	NewConnections     int
	Unions             int
	Splits             int
	UsersMoved         int
	VideosRevectorized int

	// MaintenanceDuration is the wall time spent inside sub-community
	// maintenance (graph merge, union/split, dictionary patching) for this
	// batch, excluding edge derivation and re-vectorization.
	MaintenanceDuration time.Duration

	// User-interest graph size after the pass: nodes, undirected edges, and
	// directed overlay entries awaiting CSR compaction.
	GraphUsers   int
	GraphEdges   int
	GraphOverlay int
}

// summaryFromReport lifts a core update report into the public summary.
func summaryFromReport(rep core.UpdateReport) UpdateSummary {
	return UpdateSummary{
		NewConnections:      rep.Maintenance.NewConnections,
		Unions:              rep.Maintenance.Unions,
		Splits:              rep.Maintenance.Splits,
		UsersMoved:          rep.Maintenance.UsersMoved,
		VideosRevectorized:  rep.VideosRevectorized,
		MaintenanceDuration: rep.MaintenanceDuration,
		GraphUsers:          rep.GraphUsers,
		GraphEdges:          rep.GraphEdges,
		GraphOverlay:        rep.GraphOverlay,
	}
}

// Engine is the recommender. All methods are safe for concurrent use.
//
// Reads (Recommend, RecommendClip, RecommendSegment, Len, SubCommunities,
// Version) are lock-free: they load the current immutable view through an
// atomic pointer and never contend with each other or with writers.
// Mutations (Add, AddAll, Build, Remove, ApplyUpdates) serialize behind a
// writer mutex; each builds the next state copy-on-write and publishes it as
// a new view with a monotonically increasing version, so in-flight readers
// keep the view they loaded until they finish.
type Engine struct {
	writeMu sync.Mutex        // serializes mutations, Build, Save and journal management
	rec     *core.Recommender // write-side builder; touch only under writeMu
	journal *store.Journal    // nil unless AttachJournal was called
	jpath   string            // journal file path, "" unless attached

	// shared marks rec's social state as shared with other shard engines:
	// standalone updates fail with ErrSharedSocial. Guarded by writeMu.
	shared bool

	cur atomic.Pointer[engineView] // the published view; never nil after New/Load

	// applied is the journal sequence number of the last update batch this
	// engine has applied — the replication cursor. Written only under
	// writeMu; read lock-free by serving and replication paths. It is
	// restored from snapshots (Snapshot.JournalSeq), advanced by
	// ApplyUpdates/ApplyReplicated/journal replay, and reset by Reload.
	applied atomic.Uint64
}

// engineView pairs a frozen core view with its publication version.
type engineView struct {
	view    *core.View
	version uint64
}

// Errors returned by Engine methods.
var (
	ErrEmptyID  = errors.New("videorec: clip has an empty ID")
	ErrNoFrames = errors.New("videorec: clip has no frames")
	ErrBadFrame = errors.New("videorec: clip frame has inconsistent dimensions")
	ErrNotFound = errors.New("videorec: unknown video id")
	ErrNotBuilt = errors.New("videorec: Build must be called first")

	// ErrSignatureTooLarge rejects a prepared clip with a signature of more
	// than signature.MaxCuboids cuboids, more than extraction ever yields.
	ErrSignatureTooLarge = errors.New("videorec: prepared clip has an oversized signature")
)

// New creates an empty engine.
func New(opts Options) *Engine {
	c := core.DefaultOptions()
	if opts.Omega > 0 {
		c.Omega = opts.Omega
	}
	if opts.SubCommunities > 0 {
		c.K = opts.SubCommunities
	}
	if opts.SocialOnly {
		c.Omega = 1
	}
	if opts.ContentOnly {
		c.Omega = 0
	}
	c.RefineWorkers = opts.RefineWorkers
	c.DegradeMargin = opts.DegradeMargin
	e := &Engine{rec: core.NewRecommender(c)}
	e.cur.Store(&engineView{view: e.rec.Freeze(), version: 0})
	return e
}

// publishLocked freezes the builder's current state and swaps it in as the
// next view. Callers must hold writeMu.
func (e *Engine) publishLocked() {
	prev := e.cur.Load()
	e.cur.Store(&engineView{view: e.rec.Freeze(), version: prev.version + 1})
}

// Version returns the version of the currently published view. It starts at
// 0 for a fresh engine (1 for a loaded one), and every successful mutation
// — Add, AddAll, Build, Remove, ApplyUpdates — increments it by exactly one.
// Serving caches key entries by this version so stale results lapse
// naturally when a new view is published.
func (e *Engine) Version() uint64 {
	return e.cur.Load().version
}

// Len returns the number of ingested clips.
func (e *Engine) Len() int {
	return e.cur.Load().view.Len()
}

// Add ingests a clip: its cuboid signature series is extracted and indexed,
// its social descriptor stored. Frames are not retained. Call Build after
// the last Add (or after a batch of Adds) before recommending. Signature
// extraction runs before the writer lock is taken, so concurrent readers
// and other writers only wait for the index insertion itself.
func (e *Engine) Add(clip Clip) error {
	if clip.ID == "" {
		return ErrEmptyID
	}
	if len(clip.Frames) == 0 {
		return ErrNoFrames
	}
	v, err := toVideo(clip)
	if err != nil {
		return err
	}
	series := e.rec.ExtractSeries(v)
	desc := social.NewDescriptor(clip.Owner, clip.Commenters...)
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.rec.IngestSeries(clip.ID, series, desc)
	e.publishLocked()
	return nil
}

// Build constructs the social machinery (user interest graph, k
// sub-communities, hash dictionary, descriptor vectors, inverted files) over
// everything added so far, and publishes the result as a new view.
func (e *Engine) Build() {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.rec.BuildSocial()
	e.shared = false
	e.publishLocked()
}

// RecommendMeta describes how a Ctx-variant query was answered: the view
// version that served it (for version-keyed caches) and whether the answer
// is degraded — coarse SAR-ranked results returned because the context
// deadline left no room for full EMD refinement, or (on a sharded
// deployment) a partial merge over the shards that answered. Degraded
// results are usable rankings, but serving layers should not cache them.
type RecommendMeta struct {
	ViewVersion uint64
	Degraded    bool
	// ShardsFailed / ShardsTotal describe a scatter-gather answer: how many
	// shards the query fanned out to and how many of them failed (errored,
	// exhausted their budget, or were skipped by an open breaker). A partial
	// answer (ShardsFailed > 0) is always also Degraded. A single engine
	// leaves both zero.
	ShardsFailed int
	ShardsTotal  int
	// Candidates is how many clips candidate generation gathered for the
	// query and Refined how many of them needed a κJ before the top-K was
	// decided (summed over shards; Refined is 0 on a deadline-degraded
	// answer). Refined/Candidates drifting towards 1 means the score bound
	// has stopped pruning on this corpus.
	Candidates int
	Refined    int
}

// Recommend returns the topK most relevant stored videos for a stored clip,
// excluding the clip itself. It runs entirely against the current immutable
// view: no lock is taken and concurrent mutations never affect a query in
// flight.
func (e *Engine) Recommend(clipID string, topK int) ([]Recommendation, error) {
	recs, _, err := e.RecommendCtx(context.Background(), clipID, topK)
	return recs, err
}

// RecommendVersioned is Recommend plus the version of the view that answered
// the query, so serving layers can key caches by exactly the state a result
// was computed from.
func (e *Engine) RecommendVersioned(clipID string, topK int) ([]Recommendation, uint64, error) {
	recs, meta, err := e.RecommendCtx(context.Background(), clipID, topK)
	return recs, meta.ViewVersion, err
}

// RecommendCtx is Recommend with deadline-aware serving: cancellation is
// honored cooperatively through the whole kNN pipeline (a canceled request
// stops burning CPU within about one EMD evaluation and returns ctx.Err()),
// and a deadline too tight for full refinement degrades to the coarse SAR
// ranking instead of failing — see Options.DegradeMargin.
func (e *Engine) RecommendCtx(ctx context.Context, clipID string, topK int) ([]Recommendation, RecommendMeta, error) {
	cur := e.cur.Load()
	meta := RecommendMeta{ViewVersion: cur.version}
	if !cur.view.Built() {
		return nil, meta, ErrNotBuilt
	}
	if !cur.view.Has(clipID) {
		return nil, meta, fmt.Errorf("%w: %s", ErrNotFound, clipID)
	}
	res, info, err := cur.view.RecommendIDCtx(ctx, clipID, topK)
	if err != nil {
		return nil, meta, err
	}
	meta.Degraded, meta.Candidates, meta.Refined = info.Degraded, info.Candidates, info.Refined
	return convert(res), meta, nil
}

// BatchRequest is one stored-clip query of a RecommendBatchCtx call.
type BatchRequest struct {
	ClipID string
	TopK   int
}

// BatchAnswer is one request's answer from RecommendBatchCtx.
type BatchAnswer struct {
	Results []Recommendation
	Meta    RecommendMeta
	Err     error
}

// RecommendBatchCtx answers the requests one after another: answer i is
// exactly RecommendCtx(ctx, reqs[i].ClipID, reqs[i].TopK), with no
// deduplication and no shared work. Serving calls RecommendCtx; this loop
// stays on server.Backend because the serving benchmark (bench/) times
// rounds of queries through it.
func (e *Engine) RecommendBatchCtx(ctx context.Context, reqs []BatchRequest) []BatchAnswer {
	answers := make([]BatchAnswer, len(reqs))
	for i, r := range reqs {
		a := &answers[i]
		a.Results, a.Meta, a.Err = e.RecommendCtx(ctx, r.ClipID, r.TopK)
	}
	return answers
}

// RecommendClip recommends for an ad-hoc clip that is not in the collection
// — the anonymous-user scenario the paper targets: the query is whatever the
// visitor is currently watching. Extraction and search both run lock-free
// against the current view.
func (e *Engine) RecommendClip(clip Clip, topK int) ([]Recommendation, error) {
	recs, _, err := e.RecommendClipCtx(context.Background(), clip, topK)
	return recs, err
}

// RecommendClipCtx is RecommendClip with the deadline-aware semantics of
// RecommendCtx. Signature extraction runs before the search and is not
// cancellable; the kNN pipeline after it is.
func (e *Engine) RecommendClipCtx(ctx context.Context, clip Clip, topK int) ([]Recommendation, RecommendMeta, error) {
	cur := e.cur.Load()
	meta := RecommendMeta{ViewVersion: cur.version}
	if len(clip.Frames) == 0 {
		return nil, meta, ErrNoFrames
	}
	v, err := toVideo(clip)
	if err != nil {
		return nil, meta, err
	}
	if !cur.view.Built() {
		return nil, meta, ErrNotBuilt
	}
	if err := ctx.Err(); err != nil {
		return nil, meta, err
	}
	q := cur.view.AdHocQuery(v, social.NewDescriptor(clip.Owner, clip.Commenters...))
	res, info, err := cur.view.RecommendCtx(ctx, q, topK, clip.ID)
	if err != nil {
		return nil, meta, err
	}
	meta.Degraded, meta.Candidates, meta.Refined = info.Degraded, info.Candidates, info.Refined
	return convert(res), meta, nil
}

// Remove deletes a stored clip and publishes a view without it. Its index
// entries are filtered immediately and fully compacted away on the next
// Build. Returns ErrNotFound for an unknown id.
func (e *Engine) Remove(clipID string) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if !e.rec.RemoveVideo(clipID) {
		return fmt.Errorf("%w: %s", ErrNotFound, clipID)
	}
	e.publishLocked()
	return nil
}

// ApplyUpdates ingests a batch of new comments (video id → commenting
// users), incrementally maintains the sub-communities, hash dictionary,
// descriptor vectors and inverted files (Figure 5 of the paper), and
// publishes the maintained state as a new view.
func (e *Engine) ApplyUpdates(newComments map[string][]string) (UpdateSummary, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if !e.rec.Built() {
		return UpdateSummary{}, ErrNotBuilt
	}
	if e.shared {
		return UpdateSummary{}, ErrSharedSocial
	}
	if err := e.logBatchLocked(newComments, nil); err != nil {
		return UpdateSummary{}, err
	}
	rep := e.rec.ApplyUpdates(newComments)
	e.publishLocked()
	return summaryFromReport(rep), nil
}

// logBatchLocked journals one batch ahead of applying it — edges is the
// batch's encoded edge list on a shard, nil on a whole-corpus engine — and
// advances the replication cursor to it. Callers hold writeMu.
func (e *Engine) logBatchLocked(comments map[string][]string, edges []byte) error {
	if e.journal == nil {
		e.applied.Add(1)
		return nil
	}
	if err := e.journal.AppendEntry(comments, edges); err != nil {
		return fmt.Errorf("videorec: journal: %w", err)
	}
	e.applied.Store(e.journal.Seq())
	return nil
}

// GraphStats reports the current user-interest graph size: nodes, undirected
// edges, and directed overlay entries awaiting CSR compaction. It reads the
// write-side graph under the writer lock; all zero before Build.
func (e *Engine) GraphStats() (users, edges, overlay int) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.rec.GraphStats()
}

// Built reports whether the currently published view has its social
// machinery constructed — the gate readiness probes use: an unbuilt engine
// cannot answer Recommend or apply updates.
func (e *Engine) Built() bool {
	return e.cur.Load().view.Built()
}

// AppliedSeq returns the journal sequence number of the last update batch
// this engine has applied — the replication cursor. On a primary it is the
// journal head; on a replica it trails the primary's head by the current
// replication lag. Zero before any journaled update.
func (e *Engine) AppliedSeq() uint64 {
	return e.applied.Load()
}

// SubCommunities returns the current number of extracted sub-communities
// (the SAR vector dimensionality). Zero before Build.
func (e *Engine) SubCommunities() int {
	if p := e.cur.Load().view.Partition(); p != nil {
		return p.Dim
	}
	return 0
}

func toVideo(clip Clip) (*video.Video, error) {
	v := &video.Video{
		ID:             clip.ID,
		Title:          clip.Title,
		FPS:            clip.FPS,
		NominalSeconds: clip.NominalSeconds,
	}
	if v.FPS <= 0 {
		v.FPS = 25
	}
	v.Frames = make([]*video.Frame, 0, len(clip.Frames))
	for i, f := range clip.Frames {
		// Divide rather than multiply: W·H can overflow int and wrap to
		// len(Pix), and video.NewFrame would then panic on the clip.
		if f.W <= 0 || f.H <= 0 || len(f.Pix)%f.W != 0 || len(f.Pix)/f.W != f.H {
			return nil, fmt.Errorf("frame %d of %q: %w", i, clip.ID, ErrBadFrame)
		}
		vf := video.NewFrame(f.W, f.H)
		for p, x := range f.Pix {
			vf.Pix[p] = clampPix(x)
		}
		v.Frames = append(v.Frames, vf)
	}
	return v, nil
}

func clampPix(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 255 {
		return 255
	}
	return x
}

func convert(in []core.Result) []Recommendation {
	out := make([]Recommendation, len(in))
	for i, r := range in {
		out[i] = Recommendation{
			VideoID: r.VideoID,
			Score:   r.Score,
			Content: r.Content,
			Social:  r.Social,
		}
	}
	return out
}

// RecommendSegment recommends for a sub-range [from, to) of an ad-hoc
// clip's frames — "the matched clips in content of a video" scenario: the
// viewer is reacting to one scene, not the whole clip.
func (e *Engine) RecommendSegment(clip Clip, from, to, topK int) ([]Recommendation, error) {
	recs, _, err := e.RecommendSegmentCtx(context.Background(), clip, from, to, topK)
	return recs, err
}

// RecommendSegmentCtx is RecommendSegment with the deadline-aware semantics
// of RecommendCtx.
func (e *Engine) RecommendSegmentCtx(ctx context.Context, clip Clip, from, to, topK int) ([]Recommendation, RecommendMeta, error) {
	if from < 0 || to > len(clip.Frames) || from >= to {
		return nil, RecommendMeta{ViewVersion: e.Version()}, fmt.Errorf("videorec: invalid segment [%d, %d) of %d frames", from, to, len(clip.Frames))
	}
	sub := clip
	sub.Frames = clip.Frames[from:to]
	return e.RecommendClipCtx(ctx, sub, topK)
}
