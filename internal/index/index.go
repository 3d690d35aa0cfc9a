// Package index implements the two access paths of the KNN search of §4.4
// (Figure 6): the LSB content index — cuboid signatures embedded into L1,
// LSH-hashed, Z-ordered and stored in a B⁺-tree whose entries carry the
// video id — and the k inverted files mapping each sub-community id to the
// videos whose descriptors touch it.
//
// Videos are identified by dense uint32 indices (interned by the owner — the
// core view assigns them in ingestion order), so posting lists are flat
// sorted integer arrays and set membership is a bitset probe. The inverted
// files are impact postings: each entry carries the video's count in that
// dimension beside its index, so the caller scores Eq. 6's s̃J exactly by
// accumulating Σ min(q_d, v_d) over the query's touched lists — no union of
// the lists and no pass over all k dimensions per candidate.
package index

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"

	"videorec/internal/btree"
	"videorec/internal/lsh"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// SigEntry is one LSB-tree payload: the (object id) half of the (Z-value,
// object id) pairs of [28] — which video a stored signature belongs to (by
// dense index) and its position in that video's series. It holds no pointer,
// so the trees' value arrays are flat words the collector never scans; an
// owner that needs the signature itself keeps the series and reads
// series[Ord].
type SigEntry struct {
	Video uint32
	Ord   uint32
}

// LSBOptions tunes the content index.
type LSBOptions struct {
	M          int     // LSH functions per tree (M·Bits ≤ 64)
	Bits       int     // bits per hash value
	W          float64 // LSH bucket width
	Levels     int     // embedding grid levels
	VMin, VMax float64 // cuboid value domain
	TreeOrder  int
	Trees      int // LSB-trees in the forest ([28] uses L trees; more trees, better recall)
	Seed       int64
}

// DefaultLSBOptions matches the signature package's default value scaling
// (cuboid values in roughly [−64, 64] after VScale=4).
func DefaultLSBOptions() LSBOptions {
	return LSBOptions{
		M:      8,
		Bits:   8,
		W:      0.02,
		Levels: 7,
		VMin:   -64, VMax: 64,
		TreeOrder: 64,
		Trees:     2,
		Seed:      1,
	}
}

// LSB is the content index: an LSB-forest of one or more Z-order B⁺-trees,
// each with an independently drawn hash family, per [28]. A near neighbour
// missed by one tree's space-filling curve is usually caught by another's.
type LSB struct {
	trees     []*btree.Tree[SigEntry]
	hfs       []*lsh.HashFamily
	emb       *lsh.Embedder
	totalBits int
	// fp fingerprints the construction parameters. Hash families are drawn
	// deterministically from them, so two forests with equal fingerprints
	// key any signature identically — the contract behind sharing
	// precomputed QueryKeys across a sharded deployment's forests.
	fp uint64
}

// NewLSB builds an empty content index.
func NewLSB(opts LSBOptions) *LSB {
	if opts.M == 0 {
		opts = DefaultLSBOptions()
	}
	if opts.Trees < 1 {
		opts.Trees = 1
	}
	emb := lsh.NewEmbedder(opts.VMin, opts.VMax, opts.Levels)
	ix := &LSB{emb: emb, totalBits: opts.M * opts.Bits, fp: optsFingerprint(opts)}
	for t := 0; t < opts.Trees; t++ {
		ix.trees = append(ix.trees, btree.New[SigEntry](opts.TreeOrder))
		ix.hfs = append(ix.hfs, lsh.NewHashFamily(emb.Dim(), opts.M, opts.Bits, opts.W, opts.Seed+int64(t)*7919))
	}
	return ix
}

// optsFingerprint folds every parameter that shapes the hash families and
// the embedding into one comparable word.
func optsFingerprint(opts LSBOptions) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{
		uint64(opts.M), uint64(opts.Bits), math.Float64bits(opts.W),
		uint64(opts.Levels), math.Float64bits(opts.VMin), math.Float64bits(opts.VMax),
		uint64(opts.Trees), uint64(opts.Seed),
	} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// KeyFingerprint identifies the keying behaviour of this forest. Equal
// fingerprints guarantee equal keys for any signature; QueryKeys results
// may be shared exactly between forests with matching fingerprints.
func (ix *LSB) KeyFingerprint() uint64 { return ix.fp }

// Len returns the number of indexed signatures (per tree; every tree holds
// every signature).
func (ix *LSB) Len() int { return ix.trees[0].Len() }

// Clone returns an independent copy of the index in O(trees): the B⁺-trees
// are persistent — a clone shares every node and an Add copies only the
// paths it writes — and the hash families and the embedder are immutable
// after construction. Mutating either copy never affects the other, which is
// what the copy-on-write read views rely on.
func (ix *LSB) Clone() *LSB {
	cp := &LSB{
		trees:     make([]*btree.Tree[SigEntry], len(ix.trees)),
		hfs:       ix.hfs,
		emb:       ix.emb,
		totalBits: ix.totalBits,
		fp:        ix.fp,
	}
	for t, tr := range ix.trees {
		cp.trees[t] = tr.Clone()
	}
	return cp
}

// Trees returns the forest size.
func (ix *LSB) Trees() int { return len(ix.trees) }

// Add indexes every signature of a video's series into every tree and
// returns the keys it computed, in the QueryKeys layout. An owner that keeps
// them can re-index the video later with AddKeys, or walk from it with
// ResetWithKeys, without the series.
func (ix *LSB) Add(video uint32, series signature.Series) []uint64 {
	keys := ix.QueryKeys(series)
	ix.AddKeys(video, keys)
	return keys
}

// AddKeys indexes a video's signatures from their keys (the QueryKeys
// layout, keys[si*Trees()+t]): signature si goes into tree t under
// keys[si*Trees()+t]. A key slice from a forest with another
// KeyFingerprint, or of a length that is not a multiple of Trees(), indexes
// garbage.
func (ix *LSB) AddKeys(video uint32, keys []uint64) {
	nt := len(ix.trees)
	for si := 0; si+nt <= len(keys); si += nt {
		e := SigEntry{Video: video, Ord: uint32(si / nt)}
		for t := range ix.trees {
			ix.trees[t].Insert(keys[si+t], e)
		}
	}
}

// Walker streams indexed signatures in decreasing order of the longest
// common Z-order prefix with any signature of the query series — the "next
// longest common prefix" search order of Figure 6. Each query signature
// expands bidirectionally from its tree position; a max-heap keyed by each
// front's current common-prefix length yields globally prefix-descending
// entries in O(log F) per pop instead of a linear scan over all fronts.
//
// A Walker is reusable: Reset re-seeds it for a new query without
// reallocating the front and heap storage, so pooled per-query scratch pays
// no per-query allocation.
type Walker struct {
	ix     *LSB
	fronts []walkFront
	heap   []walkItem

	// Reusable keying buffers: Reset re-keys every query signature per tree,
	// and these keep that free of allocation once warm.
	ksc  keyScratch
	keys []uint64
}

// keyScratch holds the buffers keying a series reuses across signatures.
type keyScratch struct {
	v, mu, emb []float64
	h          []int
}

// appendKeys appends the keys of q to dst in the QueryKeys layout. Every
// tree shares the embedder, so each signature is embedded once and the
// embedding hashed with each tree's family. It reads only the hash families
// and the embedder, which never change after NewLSB, so many goroutines may
// key series against one forest at once.
func (ix *LSB) appendKeys(dst []uint64, q signature.Series, sc *keyScratch) []uint64 {
	for _, sig := range q {
		sc.v, sc.mu = sig.ValuesInto(sc.v, sc.mu)
		dst = ix.appendSigKeys(dst, sc.v, sc.mu, sc)
	}
	return dst
}

// appendSigKeys appends the keys of one signature, given its cuboid values
// and weights in extraction order.
func (ix *LSB) appendSigKeys(dst []uint64, v, mu []float64, sc *keyScratch) []uint64 {
	sc.emb = ix.emb.EmbedInto(sc.emb, v, mu)
	for _, hf := range ix.hfs {
		sc.h = hf.HashInto(sc.h, sc.emb)
		dst = append(dst, lsh.ZOrder(sc.h, hf.Bits()))
	}
	return dst
}

type walkFront struct {
	qkey uint64
	fwd  btree.Iterator[SigEntry]
	bwd  btree.Iterator[SigEntry]
}

// walkItem is one heap entry: a front direction positioned on a live slot,
// keyed by the common-prefix length of that slot with the front's query key.
type walkItem struct {
	p   int32 // common-prefix length of the current position
	fi  int32 // front index, ascending tie-break
	fwd bool  // forward direction wins ties within a front
}

// before is the heap's strict total order: longer prefixes pop first; among
// equal prefixes the earliest front wins, forward before backward. This is
// exactly the order the former linear tournament produced (first strict
// improvement scanning fronts in creation order, fwd checked before bwd),
// so the yield sequence is unchanged.
func (a walkItem) before(b walkItem) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	if a.fi != b.fi {
		return a.fi < b.fi
	}
	return a.fwd && !b.fwd
}

// NewWalker prepares an LCP walk for the query series: one bidirectional
// front per (query signature, tree) pair.
func (ix *LSB) NewWalker(q signature.Series) *Walker {
	w := &Walker{}
	w.Reset(ix, q)
	return w
}

// Reset re-seeds the walker for a new query against ix, reusing storage:
// it keys every (query signature, tree) pair into the walker's own buffer
// and walks from those keys.
func (w *Walker) Reset(ix *LSB, q signature.Series) {
	w.keys = ix.appendKeys(w.keys[:0], q, &w.ksc)
	w.ResetWithKeys(ix, w.keys)
}

// QueryKeys precomputes the Z-order key of every (query signature, tree)
// pair — the keying work Reset would otherwise redo — laid out as
// keys[si*Trees()+t]. A caller fanning one query across several forests
// with equal KeyFingerprints (the sharded deployment: same options, same
// deterministic hash families) keys once and hands the slice to each
// walker's ResetWithKeys instead of paying the embedding per forest.
func (ix *LSB) QueryKeys(q signature.Series) []uint64 {
	return ix.appendKeys(make([]uint64, 0, len(q)*len(ix.hfs)), q, &keyScratch{})
}

// CompiledKeys is QueryKeys of the series cs was compiled from, read
// through its permutation in extraction order, so the keys are equal bit
// for bit without rebuilding the series. Like QueryKeys it is safe to call
// from many goroutines at once.
func (ix *LSB) CompiledKeys(cs *signature.CompiledSeries) []uint64 {
	dst := make([]uint64, 0, cs.Len()*len(ix.hfs))
	var sc keyScratch
	cs.EachSignature(func(v, mu []float64) { dst = ix.appendSigKeys(dst, v, mu, &sc) })
	return dst
}

// ResetWithKeys is Reset seeded from precomputed keys in the QueryKeys
// layout — one query signature per Trees() keys — so the walk needs no
// series at all: a stored clip's query walks from the keys its ingest
// computed. The keys must come from a forest with ix's KeyFingerprint
// (callers gate sharing on it); a trailing partial group is ignored.
func (w *Walker) ResetWithKeys(ix *LSB, keys []uint64) {
	w.ix = ix
	w.fronts = w.fronts[:0]
	w.heap = w.heap[:0]
	nt := len(ix.trees)
	for si := 0; si+nt <= len(keys); si += nt {
		for t := range ix.trees {
			k := keys[si+t]
			f := walkFront{qkey: k, fwd: ix.trees[t].SeekAt(k)}
			f.bwd = f.fwd
			fi := int32(len(w.fronts))
			if f.bwd.Prev() {
				w.push(walkItem{p: w.prefix(k, f.bwd.Key()), fi: fi, fwd: false})
			}
			if f.fwd.Valid() {
				w.push(walkItem{p: w.prefix(k, f.fwd.Key()), fi: fi, fwd: true})
			}
			w.fronts = append(w.fronts, f)
		}
	}
}

func (w *Walker) prefix(qkey, key uint64) int32 {
	return int32(lsh.CommonPrefixLen(qkey, key, w.ix.totalBits))
}

// Next returns the indexed entry with the globally longest remaining common
// prefix, its prefix length, and whether anything was left. Entries are
// yielded at most once per front but a video naturally recurs across
// signatures; the caller deduplicates at video level.
func (w *Walker) Next() (SigEntry, int, bool) {
	if len(w.heap) == 0 {
		return SigEntry{}, 0, false
	}
	top := w.heap[0]
	yielded := int(top.p)
	f := &w.fronts[top.fi]
	var e SigEntry
	var alive bool
	if top.fwd {
		e = f.fwd.Value()
		alive = f.fwd.Next()
		if alive {
			top.p = w.prefix(f.qkey, f.fwd.Key())
		}
	} else {
		e = f.bwd.Value()
		alive = f.bwd.Prev()
		if alive {
			top.p = w.prefix(f.qkey, f.bwd.Key())
		}
	}
	if alive {
		// Replace the root with the advanced position and restore heap order.
		w.heap[0] = top
		w.down(0)
	} else {
		last := len(w.heap) - 1
		w.heap[0] = w.heap[last]
		w.heap = w.heap[:last]
		if last > 0 {
			w.down(0)
		}
	}
	return e, yielded, true
}

func (w *Walker) push(it walkItem) {
	w.heap = append(w.heap, it)
	i := len(w.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.heap[i].before(w.heap[parent]) {
			return
		}
		w.heap[i], w.heap[parent] = w.heap[parent], w.heap[i]
		i = parent
	}
}

func (w *Walker) down(i int) {
	n := len(w.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && w.heap[l].before(w.heap[best]) {
			best = l
		}
		if r < n && w.heap[r].before(w.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		w.heap[i], w.heap[best] = w.heap[best], w.heap[i]
		i = best
	}
}

// Inverted is the set of k inverted files of §4.4, held as impact postings:
// per sub-community dimension d, the dense indices of the videos whose SAR
// vector touches d (sorted ascending) and, in a parallel slice, each one's
// count v_d. The counts are what lets step 1 compute s̃J from the touched
// lists alone (see core's gather). Lists are treated as immutable once
// shared: Clone copies only the outer tables (O(k)), and the first mutation
// of a dimension after a clone replaces what it changes with a private copy
// — a membership change both slices, a count change only the counts. Views
// therefore share posting lists copy-on-write exactly like compiled
// signatures.
type Inverted struct {
	ids    [][]uint32
	counts [][]uint32 // counts[d][j] is v_d of video ids[d][j]
	// idsOwned[d] / countsOwned[d]: that slice of dimension d is privately
	// owned and may be mutated in place.
	idsOwned, countsOwned []bool
}

// NewInverted allocates k empty posting lists.
func NewInverted(k int) *Inverted {
	return &Inverted{
		ids: make([][]uint32, k), counts: make([][]uint32, k),
		idsOwned: make([]bool, k), countsOwned: make([]bool, k),
	}
}

// Dims returns the number of posting lists.
func (iv *Inverted) Dims() int { return len(iv.ids) }

// Clone returns a copy sharing every posting list copy-on-write: O(k)
// regardless of how many postings exist. Both copies may afterwards be
// mutated independently — the single-writer discipline of the core engine
// guarantees the cloned-from side is a frozen view that never mutates.
func (iv *Inverted) Clone() *Inverted {
	return &Inverted{
		ids:         slices.Clone(iv.ids),
		counts:      slices.Clone(iv.counts),
		idsOwned:    make([]bool, len(iv.ids)),
		countsOwned: make([]bool, len(iv.ids)),
	}
}

// ownCounts makes dimension d's counts privately mutable, copying them if
// shared.
func (iv *Inverted) ownCounts(d int) {
	if !iv.countsOwned[d] {
		iv.counts[d] = slices.Clone(iv.counts[d])
		iv.countsOwned[d] = true
	}
}

// own makes both of dimension d's slices privately mutable, copying what is
// shared — what a membership change needs.
func (iv *Inverted) own(d int) {
	iv.ownCounts(d)
	if !iv.idsOwned[d] {
		iv.ids[d] = slices.Clone(iv.ids[d])
		iv.idsOwned[d] = true
	}
}

// Add posts the video under every dimension its descriptor vector touches,
// with the vector's count there, keeping each posting list sorted. A video
// already posted under a dimension keeps its entry, rewritten if the count
// changed (copying that dimension's counts if shared, never its ids); an
// unchanged posting copies nothing. Appending videos in ascending index
// order (the bulk-build path — ingestion order is interning order) is O(1)
// amortized per posting; out-of-order inserts pay one memmove.
func (iv *Inverted) Add(video uint32, vec social.Vector) {
	for d, x := range vec {
		if x <= 0 || d >= len(iv.ids) {
			continue
		}
		c := uint32(x)
		list := iv.ids[d]
		n := len(list)
		if n == 0 || list[n-1] < video {
			iv.own(d)
			iv.ids[d] = append(iv.ids[d], video)
			iv.counts[d] = append(iv.counts[d], c)
			continue
		}
		i, found := slices.BinarySearch(list, video)
		if found {
			if iv.counts[d][i] != c {
				iv.ownCounts(d)
				iv.counts[d][i] = c
			}
			continue
		}
		iv.own(d)
		iv.ids[d] = slices.Insert(iv.ids[d], i, video)
		iv.counts[d] = slices.Insert(iv.counts[d], i, c)
	}
}

// Remove unposts the video from every dimension of the given vector (use
// the vector it was added with).
func (iv *Inverted) Remove(video uint32, vec social.Vector) {
	for d, x := range vec {
		if x <= 0 || d >= len(iv.ids) {
			continue
		}
		i, found := slices.BinarySearch(iv.ids[d], video)
		if !found {
			continue
		}
		iv.own(d)
		iv.ids[d] = slices.Delete(iv.ids[d], i, i+1)
		iv.counts[d] = slices.Delete(iv.counts[d], i, i+1)
	}
}

// Grow extends the index to at least k dimensions (maintenance can mint new
// sub-community ids past the original k).
func (iv *Inverted) Grow(k int) {
	for len(iv.ids) < k {
		iv.ids = append(iv.ids, nil)
		iv.counts = append(iv.counts, nil)
		iv.idsOwned = append(iv.idsOwned, true)
		iv.countsOwned = append(iv.countsOwned, true)
	}
}

// DimLen returns the posting-list length of one dimension — the N_ui / N_si
// inputs of the Equation 8 cost model, read directly off the list header.
func (iv *Inverted) DimLen(d int) int { return len(iv.Postings(d)) }

// Postings returns one dimension's sorted posting list of video indices.
// The caller must treat it as immutable — it is shared with every clone of
// the index.
func (iv *Inverted) Postings(d int) []uint32 {
	if d < 0 || d >= len(iv.ids) {
		return nil
	}
	return iv.ids[d]
}

// Counts returns one dimension's counts, parallel to Postings(d): the j-th
// is v_d of the j-th posted video. The same immutability contract applies.
func (iv *Inverted) Counts(d int) []uint32 {
	if d < 0 || d >= len(iv.counts) {
		return nil
	}
	return iv.counts[d]
}
