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
// exact set Jaccard is approximated by a histogram min/max ratio. A hashed
// user → sub-community map (the partition itself) replaces a dictionary scan.
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
// vectors with the partition's hashed user dictionary).
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
	// Deprecated: ignored, as refinement runs on the calling goroutine. The
	// next benchmark change deletes this field.
	RefineWorkers int
}

// Frame is one grayscale frame; intensities are clamped to [0, 255].
type Frame struct {
	W, H int
	Pix  []float64 // row-major, length W*H
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
	// maintenance (graph merge, union/split) for this batch, excluding edge
	// derivation and re-vectorization.
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
// Reads (Recommend, RecommendClip, Len, SubCommunities, Version) are
// lock-free: they load the current immutable view through an atomic pointer
// and never contend with each other or with writers. Mutations (Add, Build,
// Remove, ApplyUpdates) serialize behind a writer mutex; each builds the
// next state copy-on-write and publishes it as a new view with a
// monotonically increasing version, so in-flight readers keep the view they
// loaded until they finish.
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
	// ApplyUpdates/ApplyReplicatedEntry/journal replay, and reset by Reload.
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
// — Add, Build, Remove, ApplyUpdates — increments it by exactly one.
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
	p, err := e.PrepareClip(clip)
	if err != nil {
		return err
	}
	return e.AddPrepared(p)
}

// Build constructs the social machinery (user interest graph, k
// sub-communities, descriptor vectors, inverted files) over
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
// is degraded — the context deadline cut EMD refinement short, so only the
// candidates refined before it carry exact scores and the rest the lower
// bound ω·s̃J with Content = 0, or (on a sharded deployment) a partial
// merge over the shards that answered. Degraded results are usable
// rankings, but serving layers should not cache them.
type RecommendMeta struct {
	ViewVersion uint64
	Degraded    bool
	// ShardsFailed / ShardsTotal describe a scatter-gather answer: how many
	// shards the query fanned out to and how many of them failed (errored,
	// exhausted their budget before refining, or were skipped by an open
	// breaker). A shard whose budget ends mid-refinement does not fail: it
	// answers degraded, on the same scale as the others. A partial
	// answer (ShardsFailed > 0) is always also Degraded. A single engine
	// leaves both zero.
	ShardsFailed int
	ShardsTotal  int
	// Candidates is how many clips candidate generation gathered for the
	// query and Refined how many of them needed a κJ before the top-K was
	// decided — or, on a deadline-degraded answer, got one before the
	// deadline (summed over shards). Refined/Candidates drifting towards 1
	// means the score bound has stopped pruning on this corpus. The shards
	// of a router run in parallel and prune against one shared score floor,
	// so Refined depends on which shard scored first; on a complete answer
	// it always lies between the results returned and Candidates, and the
	// answer never depends on it.
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

// RecommendCtx is Recommend with deadline-aware serving: cancellation is
// honored cooperatively through the whole kNN pipeline (a canceled request
// stops burning CPU within about one EMD evaluation and returns ctx.Err()),
// and a deadline that passes during refinement answers from the candidates
// refined so far, flagged Degraded, instead of failing; one that passes
// while candidates are still being gathered fails with DeadlineExceeded.
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
// users), incrementally maintains the sub-communities, descriptor vectors
// and inverted files (Figure 5 of the paper), and
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
	if len(clip.Frames) > video.MaxFrames {
		return nil, fmt.Errorf("%d frames of %q (max %d): %w", len(clip.Frames), clip.ID, video.MaxFrames, ErrBadFrame)
	}
	v.Frames = make([]*video.Frame, 0, len(clip.Frames))
	for i, f := range clip.Frames {
		if f.W > video.MaxFrameSide || f.H > video.MaxFrameSide {
			return nil, fmt.Errorf("frame %d of %q is %dx%d (max side %d): %w", i, clip.ID, f.W, f.H, video.MaxFrameSide, ErrBadFrame)
		}
		// Divide rather than multiply, so no W·H can wrap around to len(Pix).
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
