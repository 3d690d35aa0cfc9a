package core

import (
	"cmp"
	"hash/maphash"
	"slices"
	"sort"
	"sync"

	"videorec/internal/bitset"
	"videorec/internal/btree"
	"videorec/internal/community"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/video"
)

// idSeed keys the hash the id index is ordered by. It is drawn per process:
// ids arrive from outside, and a fixed hash would let a caller pile crafted
// ids onto one key.
var idSeed = maphash.MakeSeed()

func hashID(id string) uint64 { return maphash.String(idSeed, id) }

// View is the frozen, immutable state one recommendation query needs: the
// signature series and social descriptors of every stored video, the LSB
// content index, the inverted files, the SAR descriptor vectors, the
// sub-community partition. A View is built by
// the write-side Recommender and published to readers, after which nothing
// reachable from it is ever mutated — any number of goroutines may call its
// query methods concurrently without locking.
//
// The write side enforces this with copy-on-write at the grain of a write:
// once a View has been handed out by Freeze, the next mutation moves to a
// clone that shares every structure with it (see clone), and each write
// copies just the tree node, posting list, page or record it changes,
// so the published View keeps answering queries from the state it froze.
type View struct {
	opts Options

	// The dense video-id table: every ingested id is assigned the next uint32
	// index, forever. Indices are stable across removal and re-ingest (a
	// resurrected id reuses its slot), so every index structure — posting
	// lists, tombstones, the record table — is integer-addressed. ids maps
	// index → id; byID maps the id's hash back (a persistent tree: minting an
	// id copies one root-to-leaf path, whatever the corpus holds).
	ids  cowVec[string]
	byID *btree.Tree[uint32]

	recs     cowVec[*Record]            // dense index → record; nil marks a dead slot
	mass     cowVec[uint32]             // dense index → |Vec| = Σ Vec, written with every Vec; 0 for a dead slot
	env      cowVec[signature.Envelope] // dense index → Compiled.Envelope(); deadEnv for a dead slot
	sketches cowVec[[]signature.Sketch] // dense index → Compiled.Sketches, aliased, not copied; nil for a dead slot
	live     int                        // records in recs
	nextSeq  uint64                     // ingestion-order position of the next new record

	lsb *index.LSB
	inv *index.Inverted

	// The social state's partition as of the last adoptSocial: shared with
	// the Social, which clones it before it changes it.
	part *community.Partition

	tombstones bitset.Set // removed videos with LSB entries pending compaction
	tombCount  int
	built      bool

	// scratch hands out per-query scratch (candidate bitset, qvec, merged
	// index buffer, LCP walker, scored social candidates, refinement heap,
	// result selector and EMD scratch). It is per-view so every pooled buffer
	// is already sized for this view's id space, and it survives only as
	// long as the view — a clone starts a fresh pool.
	scratch *sync.Pool
}

// newPools builds the view's scratch pool. Called by NewRecommender and
// clone; the pool pointer is never shared between views.
func (v *View) newPools() {
	v.scratch = &sync.Pool{New: func() any { return new(queryScratch) }}
}

// clone returns the View the writer grows next. Everything reachable from v
// stays immutable, so the clone shares it and costs a few headers, not the
// corpus: the LSB trees, the id index, the posting lists and the pages of
// the id, record, mass, envelope and sketch tables are handed over as they
// are, and a later write copies the node, list or page it lands in; records
// are replaced, never edited (see Record). The partition belongs to the
// Social, which clones it at the start of its next pass.
// What is still copied flat is the tombstone bitset (one bit per clip). The
// write side calls this exactly once per freeze→mutate transition.
func (v *View) clone() *View {
	nv := &View{
		opts:       v.opts,
		ids:        v.ids.clone(),
		byID:       v.byID.Clone(),
		recs:       v.recs.clone(),
		mass:       v.mass.clone(),
		env:        v.env.clone(),
		sketches:   v.sketches.clone(),
		live:       v.live,
		nextSeq:    v.nextSeq,
		lsb:        v.lsb.Clone(),
		part:       v.part,
		tombstones: v.tombstones.Clone(),
		tombCount:  v.tombCount,
		built:      v.built,
	}
	nv.newPools()
	if v.inv != nil {
		nv.inv = v.inv.Clone()
	}
	return nv
}

// adoptSocial points the view at the social state's current partition.
func (v *View) adoptSocial(s *Social) {
	v.part = s.part
}

// index resolves a video id to its dense index.
func (v *View) index(id string) (uint32, bool) {
	h := hashID(id)
	for it := v.byID.SeekAt(h); it.Valid() && it.Key() == h; it.Next() {
		if i := it.Value(); v.ids.At(i) == id {
			return i, true
		}
	}
	return 0, false
}

// ordered returns the dense indices of the live records in ingestion order — the order bulk
// rebuilds and snapshots must follow to stay deterministic. A re-ingested id
// that was still stored keeps its place; one that had been removed rejoins
// at the end.
func (v *View) ordered() []uint32 {
	out := make([]uint32, 0, v.live)
	for i, rec := range v.recs.All() {
		if rec != nil {
			out = append(out, uint32(i))
		}
	}
	slices.SortFunc(out, func(a, b uint32) int { return cmp.Compare(v.recs.At(a).seq, v.recs.At(b).seq) })
	return out
}

// record returns the dense-indexed record for a video id, or nil.
func (v *View) record(id string) *Record {
	if i, ok := v.index(id); ok {
		return v.recs.At(i)
	}
	return nil
}

// Options returns the view's configuration.
func (v *View) Options() Options { return v.opts }

// Len returns the number of stored videos in the view.
func (v *View) Len() int { return v.live }

// Built reports whether the social machinery had been built when the view
// was frozen; Recommend panics on an unbuilt view exactly as it does on an
// unbuilt Recommender.
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
	ids := make([]string, 0, v.live)
	for _, rec := range v.recs.All() {
		if rec != nil {
			ids = append(ids, rec.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// QueryFor builds a Query from a stored video id.
func (v *View) QueryFor(id string) (Query, bool) {
	rec := v.record(id)
	if rec == nil {
		return Query{}, false
	}
	return Query{Desc: rec.Desc, comp: rec.Compiled, contentKeys: rec.Keys, keyFP: v.lsb.KeyFingerprint()}, true
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
// either way. A query that already carries keys for this fingerprint — a
// stored clip's, from QueryFor — comes back unchanged.
func (v *View) PrimeContentKeys(q Query) Query {
	if q.contentKeys != nil && q.keyFP == v.lsb.KeyFingerprint() {
		return q
	}
	q.contentKeys = v.lsb.QueryKeys(q.seriesOf())
	q.keyFP = v.lsb.KeyFingerprint()
	return q
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

// deadEnv is the envelope column's entry for a dead slot. Its negative
// length tells it from a live clip with an empty series (N = 0), which still
// gets a social score and a content bound of 0.
var deadEnv = signature.Envelope{N: -1}

// setRecord installs rec (nil for a dead slot) at dense index i together
// with its SAR mass |Vec|, which step 1's sparse s̃J reads in place of the
// vector, and its content envelope and sketches, which refinement's bounds
// read in place of the compiled series. Every write of a record goes through
// it, so the columns never drift from the records. An unchanged entry is not
// rewritten: most records a batch re-vectorizes keep their vector, and none
// changes its series, so their mass, envelope and sketch pages stay shared.
func (v *View) setRecord(i uint32, rec *Record) {
	var m uint32
	e := deadEnv
	var sk []signature.Sketch
	if rec != nil {
		for _, x := range rec.Vec {
			m += uint32(x)
		}
		e = rec.Compiled.Envelope()
		sk = rec.Compiled.Sketches
	}
	v.recs.Set(i, rec)
	if v.mass.At(i) != m {
		v.mass.Set(i, m)
	}
	if v.env.At(i) != e {
		v.env.Set(i, e)
	}
	if old := v.sketches.At(i); len(old) != len(sk) || len(sk) > 0 && &old[0] != &sk[0] {
		v.sketches.Set(i, sk)
	}
}

// fuse is Equation 9.
func (v *View) fuse(content, soc float64) float64 {
	return (1-v.opts.Omega)*content + v.opts.Omega*soc
}

// mustBuild panics if the view was frozen before BuildSocial — querying
// without a partition is a programming error, not a runtime condition.
func (v *View) mustBuild() {
	if !v.built || v.part == nil {
		panic("core: BuildSocial must be called before recommendation")
	}
}
