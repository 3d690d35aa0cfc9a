package core

import (
	"sort"
	"sync"

	"videorec/internal/bitset"
	"videorec/internal/community"
	"videorec/internal/hashing"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/video"
)

// intern is the dense video-id table: every ingested id is assigned the
// next uint32 index, forever. Indices are stable across removal and
// re-ingest (a resurrected id reuses its slot), so every index structure —
// posting lists, tombstones, the record table — can be integer-addressed.
//
// The table is shared copy-on-write across view clones exactly like the
// compiled signatures: clone hands out the same pointer, and the first
// mutation that mints a new id copies the table before appending (see
// Recommender.internID). Most mutations (updates, removals) mint nothing
// and share the table indefinitely.
type intern struct {
	ids []string          // dense index → video id
	idx map[string]uint32 // video id → dense index
}

func newIntern() *intern {
	return &intern{idx: make(map[string]uint32)}
}

func (t *intern) clone() *intern {
	cp := &intern{
		ids: append([]string(nil), t.ids...),
		idx: make(map[string]uint32, len(t.idx)),
	}
	for id, i := range t.idx {
		cp.idx[id] = i
	}
	return cp
}

// View is the frozen, immutable state one recommendation query needs: the
// signature series and social descriptors of every stored video, the LSB
// content index, the inverted files, the SAR descriptor vectors, the
// sub-community partition and the chained-hash dictionary. A View is built by
// the write-side Recommender and published to readers, after which nothing
// reachable from it is ever mutated — any number of goroutines may call its
// query methods concurrently without locking.
//
// The write side enforces this with copy-on-write: once a View has been
// handed out by Freeze, the next mutation first clones every structure the
// View references (see clone) and applies itself to the private copy, so the
// published View keeps answering queries from the state it froze.
type View struct {
	opts Options

	intern      *intern   // dense id table, shared COW (see internID)
	internOwned bool      // this view may append to intern without copying
	recs        []*Record // dense index → record; nil marks a dead slot
	order       []string  // ingestion order of live videos: deterministic builds

	lsb   *index.LSB
	inv   *index.Inverted
	table *hashing.Table
	dict  []dictEntry // linear-scan dictionary for ModeSAR
	part  *community.Partition

	tombstones bitset.Set // removed videos with LSB entries pending compaction
	tombCount  int
	built      bool

	// look caches lookupFunc's closure for the query path — vectorizing the
	// query descriptor must not allocate a fresh closure per query. Set by
	// installSocial and rebuilt on clone (it binds the view's own table).
	look social.Lookup

	// scratch hands out per-query scratch (candidate bitset, qvec, merged
	// index buffer, LCP walker, social selector, refinement order and result
	// selector); kjScratch hands out per-refinement-worker EMD scratch; batch
	// hands out the chunk-wide state of a batched call (per-dimension query
	// masks, merge cursors). All are per-view so every pooled buffer is
	// already sized for this view's id space, and all survive only as long
	// as the view — a clone starts fresh pools.
	scratch   *sync.Pool
	kjScratch *sync.Pool
	batch     *sync.Pool
}

// newPools builds the view's scratch pools. Called by NewRecommender and
// clone; the pool pointers are never shared between views.
func (v *View) newPools() {
	v.scratch = &sync.Pool{New: func() any { return new(queryScratch) }}
	v.kjScratch = &sync.Pool{New: func() any { return new(signature.KJScratch) }}
	v.batch = &sync.Pool{New: func() any { return new(batchScratch) }}
}

// clone returns a View whose mutable structures are all privately owned:
// record structs, ingestion order, the LSB trees, the inverted-file table,
// the hash table, the linear dictionary, the partition assignment and the
// tombstone bitset are copied; immutable payloads (signature series, social
// descriptors, SAR vectors, posting lists, the intern table — all replaced
// wholesale, never edited in place) are shared copy-on-write. The write side
// calls this exactly once per freeze→mutate transition.
func (v *View) clone() *View {
	nv := &View{
		opts:        v.opts,
		intern:      v.intern, // shared until a new id is interned
		internOwned: false,
		order:       append([]string(nil), v.order...),
		lsb:         v.lsb.Clone(),
		dict:        append([]dictEntry(nil), v.dict...),
		tombstones:  v.tombstones.Clone(),
		tombCount:   v.tombCount,
		built:       v.built,
	}
	nv.newPools()
	if len(v.recs) > 0 {
		// One backing array for every record struct: two allocations total
		// instead of one per record.
		backing := make([]Record, len(v.recs))
		nv.recs = make([]*Record, len(v.recs))
		for i, rec := range v.recs {
			if rec != nil {
				backing[i] = *rec
				nv.recs[i] = &backing[i]
			}
		}
	}
	if v.inv != nil {
		nv.inv = v.inv.Clone()
	}
	if v.table != nil {
		nv.table = v.table.Clone()
	}
	if v.part != nil {
		// Copies the dense assignment slice and marks the shared user table
		// so the writer's next mint copies it — the frozen reader never sees
		// the table grow.
		nv.part = v.part.Clone()
	}
	if v.look != nil {
		// Rebind to the clone's own table/dict/partition copies.
		nv.look = nv.lookupFunc()
	}
	return nv
}

// record returns the dense-indexed record for a video id, or nil.
func (v *View) record(id string) *Record {
	if i, ok := v.intern.idx[id]; ok {
		return v.recs[i]
	}
	return nil
}

// Options returns the view's configuration.
func (v *View) Options() Options { return v.opts }

// Len returns the number of stored videos in the view.
func (v *View) Len() int { return len(v.order) }

// Built reports whether the social machinery had been built when the view
// was frozen; Recommend in a SAR mode panics on an unbuilt view exactly as
// it does on an unbuilt Recommender.
func (v *View) Built() bool { return v.built }

// Has reports whether the video id is stored in the view.
func (v *View) Has(id string) bool { return v.record(id) != nil }

// Record returns the stored record for a video id.
func (v *View) Record(id string) (*Record, bool) {
	rec := v.record(id)
	return rec, rec != nil
}

// Partition exposes the view's sub-community partition (nil before the
// social build). Callers must treat it as read-only.
func (v *View) Partition() *community.Partition { return v.part }

// SortedIDs returns the stored video ids in a stable order.
func (v *View) SortedIDs() []string {
	ids := append([]string(nil), v.order...)
	sort.Strings(ids)
	return ids
}

// QueryFor builds a Query from a stored video id.
func (v *View) QueryFor(id string) (Query, bool) {
	rec := v.record(id)
	if rec == nil {
		return Query{}, false
	}
	return Query{Series: rec.Series, Desc: rec.Desc, comp: rec.Compiled}, true
}

// AdHocQuery builds a Query from a clip that is not part of the collection —
// the anonymous visitor's currently-watched video. Extraction touches only
// the view's immutable options, so it runs without any engine lock.
func (v *View) AdHocQuery(vd *video.Video, desc social.Descriptor) Query {
	series := signature.Extract(vd, v.opts.Sig)
	return Query{Series: series, Desc: desc, comp: signature.CompileSeries(series)}
}

// PrimeContentKeys returns q carrying the precomputed content-index keys of
// its series, stamped with this view's forest fingerprint. Any view whose
// forest shares the fingerprint (every shard of a sharded deployment — the
// hash families are drawn deterministically from shared options) reuses the
// keys during candidate gathering instead of re-embedding the series, so a
// fanned-out query pays the keying cost once. Views with a different
// fingerprint ignore the cache and key locally; results are identical
// either way.
func (v *View) PrimeContentKeys(q Query) Query {
	q.contentKeys = v.lsb.QueryKeys(q.Series)
	q.keyFP = v.lsb.KeyFingerprint()
	return q
}

// ContentRelevance is κJ between the query and a stored video.
func (v *View) ContentRelevance(q Query, id string) float64 {
	rec := v.record(id)
	if rec == nil {
		return 0
	}
	return signature.KJ(q.Series, rec.Series, v.opts.MatchThreshold)
}

// SocialRelevance is the mode-dependent social relevance between the query
// and a stored video: exact sJ (naive quadratic, as the unoptimized system
// the paper starts from) in ModeExact, s̃J over SAR vectors otherwise.
func (v *View) SocialRelevance(q Query, qvec social.Vector, id string) float64 {
	rec := v.record(id)
	if rec == nil {
		return 0
	}
	return v.socialRelevanceRec(q, qvec, rec)
}

// socialRelevanceRec is SocialRelevance for a record already in hand — the
// step-3 scoring loop resolves candidates by dense index and must not
// re-hash the string id.
func (v *View) socialRelevanceRec(q Query, qvec social.Vector, rec *Record) float64 {
	if v.opts.Mode == ModeExact {
		return naiveJaccard(q.Desc, rec.Desc)
	}
	return social.ApproxJaccard(qvec, rec.Vec)
}

// VideosPerDim reports how many videos each inverted-file dimension holds —
// the N_ui / N_si inputs of the Equation 8 cost model — read directly off
// the posting-list headers.
func (v *View) VideosPerDim() []int {
	if v.inv == nil {
		return nil
	}
	out := make([]int, v.inv.Dims())
	for d := range out {
		out[d] = v.inv.DimLen(d)
	}
	return out
}

// lookupFunc returns the user → sub-community mapping for the active mode:
// the chained hash table for ModeSARHash, the deliberately linear dictionary
// scan for ModeSAR (the unoptimized vectorization the paper's hash scheme
// speeds up), and the partition map otherwise.
func (v *View) lookupFunc() social.Lookup {
	switch v.opts.Mode {
	case ModeSARHash:
		return v.table.Lookup
	case ModeSAR:
		return func(u string) (int, bool) {
			for _, e := range v.dict {
				if e.user == u {
					return e.cno, true
				}
			}
			return 0, false
		}
	default:
		return v.part.Lookup
	}
}

// fuse is Equation 9.
func (v *View) fuse(content, soc float64) float64 {
	if v.opts.ContentWeightOnly {
		return content
	}
	if v.opts.SocialOnly {
		return soc
	}
	return (1-v.opts.Omega)*content + v.opts.Omega*soc
}

// mustBuild panics if the view was frozen before BuildSocial — calling the
// SAR paths without a partition is a programming error, not a runtime
// condition.
func (v *View) mustBuild() {
	if !v.built || v.part == nil {
		panic("core: BuildSocial must be called before SAR-mode recommendation")
	}
}
