// Package core assembles the paper's contribution: the multiple
// feature-based recommender of §4 — cuboid-signature content relevance (κJ),
// social relevance (sJ / s̃J), the fusion FJ = (1−ω)·κJ + ω·sJ (Equation 9),
// the SAR and hashed-dictionary optimizations, the KNN search of Figure 6, and
// the incremental social-updates path of Figure 5.
//
// The package is split along the read/write axis: Recommender is the
// write-side builder that ingests videos, builds the social machinery and
// applies incremental updates; View is the immutable query-side state a
// Freeze call publishes. Recommender methods mutate copy-on-write — after a
// Freeze every write copies the one node, chain, list or record it changes,
// never the corpus — so published views serve concurrent readers lock-free
// while the builder moves on.
package core

import (
	"fmt"
	"math"
	"slices"

	"videorec/internal/btree"
	"videorec/internal/community"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/video"
)

// Options configures a Recommender.
type Options struct {
	Omega          float64 // ω of Equation 9 (0: κJ alone, 1: s̃J alone); the paper's optimum is 0.7
	K              int     // number of sub-communities; the paper's optimum is 60
	MatchThreshold float64 // SimC level for κJ pair matching

	Sig signature.Options
	LSB index.LSBOptions

	UIGMaxAudience int // cap on per-video audience during UIG construction
	MinUserVideos  int // UIG dictionary ignores users seen on fewer videos
	ContentProbe   int // LCP walker pops per recommendation
	CandidateLimit int // refinement budget per recommendation

	// Deprecated: ignored, as refinement runs on the calling goroutine. The
	// next benchmark change deletes this field.
	RefineWorkers int
}

// DefaultOptions uses the paper's tuned parameters (ω=0.7, k=60).
func DefaultOptions() Options {
	return Options{
		Omega:          0.7,
		K:              60,
		MatchThreshold: signature.DefaultMatchThreshold,
		Sig:            signature.DefaultOptions(),
		LSB:            index.DefaultLSBOptions(),
		UIGMaxAudience: 50,
		MinUserVideos:  2,
		ContentProbe:   512,
		CandidateLimit: 400,
	}
}

// Record is everything the recommender keeps per ingested video: the
// compiled signature series (sorted values, validated weights, precomputed
// centroids — the representation the refinement kernel consumes, and the
// only form of the clip's content kept: Compiled.Series() rebuilds the raw
// series exactly), the content-index keys of its signatures, the social
// descriptor, and (after BuildSocial) the SAR descriptor vector. Frames are
// never retained. The fields of a published Record are immutable: updates
// replace the Descriptor and Vector values wholesale (and, under
// copy-on-write, the *Record itself), never edit them in place; Compiled and
// Keys are built together at ingest and never change.
type Record struct {
	ID       string
	Compiled *signature.CompiledSeries
	Desc     social.Descriptor
	Vec      social.Vector

	// Keys are the LSB keys ingest computed for the series, in the
	// index.LSB.QueryKeys layout (keys[si*Trees+t]). A stored clip's query
	// walks the content index from them, and compaction re-indexes the clip
	// from them, so neither needs the raw series.
	Keys []uint64

	seq uint64 // position in ingestion order (View.ordered)
}

// Query is a recommendation input: the user-selected clip's signature series
// and social descriptor (Q = (q_f, q_s) in §3). Queries built by QueryFor and
// AdHocQuery carry a precompiled series; zero-value construction is still
// valid — the query path compiles on demand. A QueryFor query leaves Series
// nil: it carries the stored clip's compiled series and content keys
// instead, and a path that needs the raw series rebuilds it from the
// compiled form (seriesOf).
type Query struct {
	Series signature.Series
	Desc   social.Descriptor

	comp *signature.CompiledSeries

	// contentKeys / keyFP carry the query's precomputed content-index keys
	// (a stored clip's from QueryFor, any other's from
	// View.PrimeContentKeys). Views whose LSB forests share the stamped
	// fingerprint reuse them instead of re-embedding the series — the
	// sharded fan-out path keys a query once, not once per shard.
	contentKeys []uint64
	keyFP       uint64

	// floor is the score floor the views of one sharded fan-out share (see
	// ScoreFloor and WithFloor); nil for every other query.
	floor *ScoreFloor
}

// compiled returns the query's compiled series, building it if the query was
// constructed without one (compilation is pure, so racing builders at worst
// duplicate work).
func (q Query) compiled() *signature.CompiledSeries {
	if q.comp != nil {
		return q.comp
	}
	return signature.CompileSeries(q.Series)
}

// seriesOf returns the query's raw series, rebuilding it from the compiled
// form when the query carries none (a stored clip's query).
func (q Query) seriesOf() signature.Series {
	if q.Series == nil && q.comp != nil {
		return q.comp.Series()
	}
	return q.Series
}

// Result is one recommended video with its fused score and the two
// component relevances.
type Result struct {
	VideoID string
	Score   float64
	Content float64
	Social  float64
}

// Recommender is the write side of the content-social recommender: it owns
// the mutable build state (the View being grown) and the social state it
// vectorizes against, and publishes immutable Views for querying. It is not
// safe for concurrent use — callers serialize mutations and hand frozen
// Views to readers.
type Recommender struct {
	opts  Options
	state *View // current build state; cloned on first mutation after Freeze

	// frozen marks state as shared with a published View: the next mutation
	// must copy-on-write before touching anything the View references.
	frozen bool

	social *Social // nil before BuildSocial; possibly shared with other shards

	// holders maps each user to the dense indices of the live records whose
	// descriptor holds them. A maintenance pass that gives a user its first
	// sub-community must re-vectorize every record holding that user: the
	// user counted in none of their vectors, so no touched dimension's
	// posting list finds them. Only the writer reads it; views never do.
	holders map[string][]uint32

	// pairCounts is DeriveFrom's dense pair-count matrix, kept across
	// batches and all zero between them.
	pairCounts []uint32
}

// newLSBFor builds the content index for the given options (shared by the
// constructor and compaction).
func newLSBFor(opts Options) *index.LSB {
	return index.NewLSB(opts.LSB)
}

// NewRecommender creates an empty recommender.
func NewRecommender(opts Options) *Recommender {
	if opts.K < 1 {
		opts.K = 60
	}
	if opts.Omega < 0 {
		opts.Omega = 0
	}
	if opts.Omega > 1 {
		opts.Omega = 1
	}
	if opts.UIGMaxAudience < 2 {
		opts.UIGMaxAudience = 50
	}
	if opts.ContentProbe < 1 {
		opts.ContentProbe = 512
	}
	if opts.CandidateLimit < 1 {
		opts.CandidateLimit = 400
	}
	if opts.Sig.Grid == 0 {
		opts.Sig = signature.DefaultOptions()
	}
	if err := checkOptions(opts); err != nil {
		panic(err)
	}
	if opts.MatchThreshold == 0 {
		opts.MatchThreshold = signature.DefaultMatchThreshold
	}
	st := &View{
		opts: opts,
		byID: btree.New[uint32](64),
		lsb:  newLSBFor(opts),
	}
	st.newPools()
	return &Recommender{opts: opts, state: st, holders: map[string][]uint32{}}
}

// checkOptions rejects options the index constructors would panic on or
// that could not be served: a Grid whose signatures could outgrow what a
// compiled series holds (signature.MaxCuboids cuboids, at most Grid² per
// signature), and LSB hash families or value domains lsh cannot build. An
// LSB with M = 0 stands for index.DefaultLSBOptions and is not checked.
func checkOptions(o Options) error {
	if o.Sig.Grid > signature.MaxGrid {
		return fmt.Errorf("core: signature grid %d exceeds %d", o.Sig.Grid, signature.MaxGrid)
	}
	l := o.LSB
	if l.M == 0 {
		return nil
	}
	if l.M < 1 || l.Bits < 1 || l.M > 64 || l.Bits > 64 || l.M*l.Bits > 64 {
		return fmt.Errorf("core: LSB family of %d hashes × %d bits does not fit 64 bits", l.M, l.Bits)
	}
	if !(l.W > 0) || math.IsInf(l.W, 1) {
		return fmt.Errorf("core: LSB bucket width %g is not finite and positive", l.W)
	}
	if !(l.VMax > l.VMin) {
		return fmt.Errorf("core: LSB value domain [%g, %g] is empty", l.VMin, l.VMax)
	}
	return nil
}

// internID resolves a video id to its dense index, minting the next index if
// the id is new. Indices are forever: a removed id keeps its slot and gets it
// back on re-ingest. Minting writes one page of each table and one path of
// the id index; published views keep the pages and nodes they froze.
func (r *Recommender) internID(id string) uint32 {
	s := r.state
	if i, ok := s.index(id); ok {
		return i
	}
	i := uint32(s.ids.Len())
	s.ids.Append(id)
	s.recs.Append(nil)
	s.mass.Append(0)
	s.env.Append(deadEnv)
	s.sketches.Append(nil)
	s.byID.Insert(hashID(id), i)
	return i
}

// Options returns the recommender's configuration.
func (r *Recommender) Options() Options { return r.opts }

// Len returns the number of ingested videos.
func (r *Recommender) Len() int { return r.state.Len() }

// Built reports whether BuildSocial has run since the last ingest.
func (r *Recommender) Built() bool { return r.state.built }

// Freeze publishes the current state as an immutable View. The returned View
// answers queries forever from the state at the freeze point; the
// recommender's later mutations copy whatever they change of what the View
// shares (copy-on-write) before applying themselves. Freezing is O(1), and
// so — up to a few flat integer tables, see View.clone — is the first
// mutation's move to a fresh build state.
func (r *Recommender) Freeze() *View {
	r.frozen = true
	return r.state
}

// beforeWrite moves the build state off a published View: if the current
// state was handed out by Freeze, the writer continues on a clone that
// shares its structures copy-on-write. Every mutating method calls it first.
func (r *Recommender) beforeWrite() {
	if !r.frozen {
		return
	}
	r.state = r.state.clone()
	r.frozen = false
}

// IngestVideo extracts the signature series from the clip, stores it with
// the social descriptor and indexes the signatures. The clip's frames are
// not retained. Re-ingesting an id replaces its record (the LSB entries of
// the old version remain; call BuildSocial to rebuild cleanly if that
// matters).
func (r *Recommender) IngestVideo(id string, v *video.Video, desc social.Descriptor) {
	series := signature.Extract(v, r.opts.Sig)
	r.IngestSeries(id, series, desc)
}

// IngestSeries stores a pre-extracted signature series (useful when the
// caller already ran extraction, e.g. the batch-ingest path and the
// benchmark harness). It keeps the series' compiled form and index keys, not
// the series itself, so the caller may reuse or drop it afterwards. Every
// signature must have at most signature.MaxCuboids cuboids — what extraction
// yields for any Grid up to signature.MaxGrid; a larger one panics.
func (r *Recommender) IngestSeries(id string, series signature.Series, desc social.Descriptor) {
	r.install(id, signature.CompileSeries(series), r.state.lsb.QueryKeys(series), desc)
}

// install stores a compiled series and its LSB keys under id: it interns
// the id, indexes the keys and writes the record. Installs run serially, in
// ingestion order.
func (r *Recommender) install(id string, compiled *signature.CompiledSeries, keys []uint64, desc social.Descriptor) {
	r.beforeWrite()
	s := r.state
	i := r.internID(id)
	s.lsb.AddKeys(i, keys)
	rec := &Record{
		ID:       id,
		Compiled: compiled,
		Desc:     desc,
		Keys:     keys,
	}
	if old := s.recs.At(i); old != nil {
		rec.seq = old.seq // replacing a stored clip keeps its place
		r.dropHolder(i, old.Desc.Users())
	} else {
		rec.seq = s.nextSeq
		s.nextSeq++
		s.live++
	}
	s.setRecord(i, rec)
	for _, u := range desc.Users() {
		r.holders[u] = append(r.holders[u], i)
	}
	s.built = false
}

// dropHolder forgets dense index i as a holder of each of users.
func (r *Recommender) dropHolder(i uint32, users []string) {
	for _, u := range users {
		h := slices.DeleteFunc(r.holders[u], func(x uint32) bool { return x == i })
		if len(h) == 0 {
			delete(r.holders, u)
		} else {
			r.holders[u] = h
		}
	}
}

// Record returns the stored record for a video id.
func (r *Recommender) Record(id string) (*Record, bool) { return r.state.Record(id) }

// Partition exposes the current sub-community partition (nil before
// BuildSocial).
func (r *Recommender) Partition() *community.Partition { return r.state.part }

// BuildSocial constructs the social machinery over everything ingested:
// the user interest graph, the k sub-communities (Figure 3), per-video
// descriptor vectors, and the inverted files.
// It must be called before Recommend and before ApplyUpdates.
func (r *Recommender) BuildSocial() {
	r.UseSocial(NewSocial(r.opts, r.CollectAudiences()))
}

// CollectAudiences returns the per-video commenter audiences of everything
// ingested, capped exactly as BuildSocial caps them (UIGMaxAudience) but NOT
// yet filtered by MinUserVideos — that filter must see the whole corpus, so
// a sharded deployment applies it to the union of every shard's map inside
// NewSocial. For a single engine, UseSocial(NewSocial(opts,
// CollectAudiences())) is BuildSocial.
func (r *Recommender) CollectAudiences() map[string][]string {
	s := r.state
	audiences := make(map[string][]string, s.live)
	for _, rec := range s.recs.All() {
		if rec != nil {
			audiences[rec.ID] = capAudience(rec.Desc.Users(), r.opts.UIGMaxAudience)
		}
	}
	return audiences
}

// UseSocial points the recommender at s and rebuilds the per-record
// structures around it — compacted LSB trees, SAR vectors, inverted files.
// It only reads s, so the shards of a deployment run it against one Social
// concurrently: after a build (a fresh s) and after a drain (the maintained
// s, which a fresh extraction would not reproduce).
func (r *Recommender) UseSocial(s *Social) {
	r.beforeWrite()
	r.compactLSB()
	r.social = s
	r.state.adoptSocial(s)
	r.vectorizeAll()
	r.state.built = true
}

// Social returns the social state the recommender vectorizes against (nil
// before BuildSocial).
func (r *Recommender) Social() *Social { return r.social }

// ShareSocial points the recommender at s in place of its own social state
// once the two are checked to agree, so no record needs re-vectorizing: how
// shards restored one by one come to share one state. A disagreement is
// returned and changes nothing.
func (r *Recommender) ShareSocial(s *Social) error {
	if r.social == s {
		return nil
	}
	if r.social == nil || s == nil {
		return fmt.Errorf("core: cannot share a social state with an unbuilt recommender")
	}
	if err := s.agrees(r.social); err != nil {
		return fmt.Errorf("core: social states disagree: %w", err)
	}
	r.beforeWrite()
	r.social = s
	r.state.adoptSocial(s)
	return nil
}

// FilterAudiences drops users appearing in fewer than min videos from every
// audience. One-shot commenters carry no community signal — every edge they
// contribute has weight 1 — yet they dominate the node population and make
// the k of Figure 3 peel singletons instead of separating fandoms, so the
// dictionary is built over recurring users only.
func FilterAudiences(audiences map[string][]string, min int) map[string][]string {
	if min <= 1 {
		return audiences
	}
	seen := map[string]int{}
	for _, users := range audiences {
		uniq := map[string]bool{}
		for _, u := range users {
			uniq[u] = true
		}
		for u := range uniq {
			seen[u]++
		}
	}
	out := make(map[string][]string, len(audiences))
	for vid, users := range audiences {
		kept := make([]string, 0, len(users))
		for _, u := range users {
			if seen[u] >= min {
				kept = append(kept, u)
			}
		}
		out[vid] = kept
	}
	return out
}

// capAudience deterministically samples at most max users (evenly strided
// over the sorted list) for UIG construction; very popular videos would
// otherwise contribute quadratic pair counts.
func capAudience(users []string, max int) []string {
	if len(users) <= max {
		return users
	}
	out := make([]string, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, users[i*len(users)/max])
	}
	return out
}

// vectorizeAll recomputes every video's descriptor vector and rebuilds the
// inverted files. Records are replaced, not edited: a published view may
// hold the old ones. Iterating in dense-index order makes every posting-list
// insert hit the sorted-append fast path.
func (r *Recommender) vectorizeAll() {
	s := r.state
	s.inv = index.NewInverted(s.part.Dim)
	for i, rec := range s.recs.All() {
		if rec == nil {
			continue
		}
		cp := *rec
		cp.Vec = social.Vectorize(cp.Desc, s.part.Lookup, s.part.Dim)
		s.setRecord(uint32(i), &cp)
		s.inv.Add(uint32(i), cp.Vec)
	}
}

// ExtractSeries runs cuboid-signature extraction with the recommender's
// configured parameters. It touches no recommender state beyond the
// immutable options and is safe to call from many goroutines.
func (r *Recommender) ExtractSeries(v *video.Video) signature.Series {
	return signature.Extract(v, r.opts.Sig)
}

// AdHocQuery builds a Query from a clip that is not part of the collection
// — the anonymous visitor's currently-watched video.
func (r *Recommender) AdHocQuery(v *video.Video, desc social.Descriptor) Query {
	series := signature.Extract(v, r.opts.Sig)
	return Query{Series: series, Desc: desc, comp: signature.CompileSeries(series)}
}

// QueryFor builds a Query from a stored video id.
func (r *Recommender) QueryFor(id string) (Query, bool) { return r.state.QueryFor(id) }
