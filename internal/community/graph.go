// Package community implements the sub-community machinery of §4.2.2 and
// §4.2.4: the user interest graph (UIG), sub-community extraction by
// lightest-edge removal (Figure 3) together with its efficient
// descending-Kruskal dual, and the social-updates maintenance algorithm
// (Figure 5) with the cost model of Equation 8.
package community

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Edge is a weighted UIG edge: W counts the videos both users are
// interested in. Edges are string-named because they cross the journal and
// replication wire (the v3 entry format, whose field names the tags give);
// inside the package everything runs on dense interned ids.
type Edge struct {
	U string  `json:"u"`
	V string  `json:"v"`
	W float64 `json:"w"`
}

// Graph is the user interest graph: nodes are social users, edge weights
// count shared interesting videos. It is undirected; parallel additions
// accumulate weight.
//
// Adjacency is a CSR base (flat neighbor/weight arrays plus per-node
// offsets, both directions stored, neighbors sorted by id) with a small
// per-node overlay absorbing post-build insertions. An edge lives in
// exactly one of the two: a delta to an edge already in the base patches
// the weight array in place (the graph is write-side private — published
// Views hold only the partition and the user table, never the adjacency),
// while a brand-new edge goes to the overlay. When the overlay outgrows
// compactThreshold(base size) it is merged into a fresh CSR base, so the
// steady state is flat-array traversal with amortized O(1) insertion.
//
// Nodes minted after the last compaction have no base span; their entire
// adjacency is overlay.
type Graph struct {
	users *UserTable

	off []uint32 // base: node id → [off[i], off[i+1]) span in nbr/wt; len = baseNodes+1
	nbr []uint32 // base: neighbor ids, sorted within each span
	wt  []float64

	ov    [][]oedge // per-node overlay, sorted by .to; nil for untouched nodes
	ovLen int       // total overlay entries (directed)
	edges int       // undirected edge count (base + overlay)
}

type oedge struct {
	to uint32
	w  float64
}

// compactTrigger decides when the overlay is folded into the CSR base. A
// variable so tests can force compaction on tiny graphs.
var compactTrigger = func(overlayDirected, baseDirected int) bool {
	return overlayDirected > 128 && overlayDirected > baseDirected/2
}

// NewGraph returns an empty UIG.
func NewGraph() *Graph {
	return &Graph{users: NewUserTable(), off: []uint32{0}}
}

// UserTable exposes the graph's intern table. The partition extracted from
// this graph shares it.
func (g *Graph) UserTable() *UserTable { return g.users }

// internUser resolves a name to its dense id, minting (with copy-on-write
// when the table is shared) if new. The empty string must never reach this.
func (g *Graph) internUser(name string) (uint32, bool) {
	if i, ok := g.users.idx[name]; ok {
		return i, false
	}
	if g.users.shared {
		g.users = g.users.clone()
	}
	return g.users.insert(name), true
}

// AddUser inserts the user if absent and returns its node index.
func (g *Graph) AddUser(u string) int {
	i, _ := g.internUser(u)
	return int(i)
}

// HasUser reports whether u is a node of the graph.
func (g *Graph) HasUser(u string) bool {
	_, ok := g.users.idx[u]
	return ok
}

// NumUsers returns the node count.
func (g *Graph) NumUsers() int { return g.users.Len() }

// Users returns the node names in insertion order. The caller must not
// modify the returned slice.
func (g *Graph) Users() []string { return g.users.names }

// baseSpan returns the CSR slice bounds for node i (empty for nodes minted
// after the last compaction).
func (g *Graph) baseSpan(i uint32) (lo, hi uint32) {
	if int(i)+1 >= len(g.off) {
		return 0, 0
	}
	return g.off[i], g.off[i+1]
}

// findBase locates neighbor b in a's base span via binary search, returning
// the index into nbr/wt.
func (g *Graph) findBase(a, b uint32) (int, bool) {
	lo, hi := g.baseSpan(a)
	end := hi
	for lo < hi {
		mid := (lo + hi) / 2
		if g.nbr[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.nbr[lo] == b {
		return int(lo), true
	}
	return 0, false
}

// addDirected adds delta to the a→b half-edge, reporting whether the edge
// did not exist before (in either base or overlay).
func (g *Graph) addDirected(a, b uint32, delta float64) bool {
	if i, ok := g.findBase(a, b); ok {
		g.wt[i] += delta
		return false
	}
	ov := g.ov
	if int(a) >= len(ov) {
		grown := make([][]oedge, g.users.Len())
		copy(grown, ov)
		g.ov, ov = grown, grown
	}
	lst := ov[a]
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := (lo + hi) / 2
		if lst[mid].to < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(lst) && lst[lo].to == b {
		lst[lo].w += delta
		return false
	}
	lst = append(lst, oedge{})
	copy(lst[lo+1:], lst[lo:])
	lst[lo] = oedge{to: b, w: delta}
	ov[a] = lst
	g.ovLen++
	return true
}

// AddEdgeWeight adds delta to the weight of the undirected edge (u, v),
// creating users and the edge as needed. Self-loops create the user but no
// edge; empty user ids are ignored entirely.
func (g *Graph) AddEdgeWeight(u, v string, delta float64) {
	if u == "" || v == "" {
		return
	}
	iu, _ := g.internUser(u)
	iv, _ := g.internUser(v)
	if u == v || delta == 0 {
		return
	}
	g.addEdgeDense(iu, iv, delta)
}

// addEdgeDense is AddEdgeWeight after interning: both endpoints exist and
// are distinct.
func (g *Graph) addEdgeDense(iu, iv uint32, delta float64) {
	if g.addDirected(iu, iv, delta) {
		g.edges++
	}
	g.addDirected(iv, iu, delta)
	g.maybeCompact()
}

func (g *Graph) maybeCompact() {
	if compactTrigger(g.ovLen, len(g.nbr)) {
		g.Compact()
	}
}

// Compact merges the overlay into a fresh CSR base covering every current
// node. Weights and the edge set are unchanged; only the storage moves.
func (g *Graph) Compact() {
	n := g.users.Len()
	off := make([]uint32, n+1)
	for i := uint32(0); i < uint32(n); i++ {
		lo, hi := g.baseSpan(i)
		deg := int(hi-lo) + len(g.overlayOf(i))
		off[i+1] = off[i] + uint32(deg)
	}
	total := int(off[n])
	nbr := make([]uint32, total)
	wt := make([]float64, total)
	for i := uint32(0); i < uint32(n); i++ {
		lo, hi := g.baseSpan(i)
		ov := g.overlayOf(i)
		w := off[i]
		// Merge two id-sorted runs.
		for lo < hi && len(ov) > 0 {
			if g.nbr[lo] < ov[0].to {
				nbr[w], wt[w] = g.nbr[lo], g.wt[lo]
				lo++
			} else {
				nbr[w], wt[w] = ov[0].to, ov[0].w
				ov = ov[1:]
			}
			w++
		}
		for ; lo < hi; lo++ {
			nbr[w], wt[w] = g.nbr[lo], g.wt[lo]
			w++
		}
		for _, e := range ov {
			nbr[w], wt[w] = e.to, e.w
			w++
		}
	}
	g.off, g.nbr, g.wt = off, nbr, wt
	g.ov, g.ovLen = nil, 0
}

// GraphFromEdges builds in one pass the graph that AddUser over users and
// then AddEdgeWeight over edges, in order, would build: the same users under
// the same ids (users first, then edge endpoints as they occur), the same
// skips (an empty name drops the edge, a self-loop or zero weight drops it
// after interning its endpoints), and each edge's weight summed in input
// order. The whole adjacency lands in the CSR base, with no overlay — how
// a version 1 snapshot's named edges are restored.
func GraphFromEdges(users []string, edges []Edge) *Graph {
	g := NewGraph()
	for _, u := range users {
		g.internUser(u)
	}
	type pair struct {
		key uint64 // a<<32 | b, a < b
		pos uint32 // input position, so duplicates sum in input order
	}
	pairs := make([]pair, 0, len(edges))
	for i, e := range edges {
		if e.U == "" || e.V == "" {
			continue
		}
		a, _ := g.internUser(e.U)
		b, _ := g.internUser(e.V)
		if e.U == e.V || e.W == 0 {
			continue
		}
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, pair{uint64(a)<<32 | uint64(b), uint32(i)})
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		if c := cmp.Compare(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
	keys := make([]uint64, 0, len(pairs))
	wts := make([]float64, 0, len(pairs))
	for i := 0; i < len(pairs); {
		w := edges[pairs[i].pos].W
		j := i + 1
		for ; j < len(pairs) && pairs[j].key == pairs[i].key; j++ {
			w += edges[pairs[j].pos].W
		}
		keys = append(keys, pairs[i].key)
		wts = append(wts, w)
		i = j
	}
	g.setCSR(keys, wts)
	return g
}

// GraphFromCSR builds the graph whose users are users, under their
// positions as ids, and whose undirected edges are keys[i] = a<<32|b of
// weight w[i]: what CSR returns, so GraphFromCSR(g.Users(), g.CSR()) equals
// g. The whole adjacency lands in the CSR base. Users must be distinct and
// non-empty, and keys ascending and distinct with a < b < len(users).
func GraphFromCSR(users []string, keys []uint64, w []float64) (*Graph, error) {
	if uint64(len(users)) > math.MaxUint32 || len(keys) != len(w) {
		return nil, fmt.Errorf("community: %d users, %d edge keys and %d weights", len(users), len(keys), len(w))
	}
	g := NewGraph()
	g.users.names, g.users.idx = users[:len(users):len(users)], make(map[string]uint32, len(users))
	for i, u := range users {
		if _, dup := g.users.idx[u]; dup || u == "" {
			return nil, fmt.Errorf("community: user %d (%q) is empty or repeated", i, u)
		}
		g.users.idx[u] = uint32(i)
	}
	for i, k := range keys {
		if a, b := k>>32, uint64(uint32(k)); a >= b || b >= uint64(len(users)) || i > 0 && k <= keys[i-1] {
			return nil, fmt.Errorf("community: edge %d (%d, %d) is out of order or range", i, a, b)
		}
	}
	g.setCSR(keys, w)
	return g, nil
}

// CSR returns every undirected edge once, as keys a<<32|b over dense user
// ids with a < b, ascending, and their weights: the form GraphFromCSR takes
// back. Both are fresh copies.
func (g *Graph) CSR() (keys []uint64, w []float64) {
	keys, w = make([]uint64, 0, g.edges), make([]float64, 0, g.edges)
	for i := uint32(0); int(i) < g.users.Len(); i++ {
		// Merge the id-sorted base span and overlay, keeping partners > i.
		lo, hi := g.baseSpan(i)
		ov := g.overlayOf(i)
		for lo < hi || len(ov) > 0 {
			var j uint32
			var wt float64
			if len(ov) == 0 || lo < hi && g.nbr[lo] < ov[0].to {
				j, wt = g.nbr[lo], g.wt[lo]
				lo++
			} else {
				j, wt = ov[0].to, ov[0].w
				ov = ov[1:]
			}
			if j > i {
				keys, w = append(keys, uint64(i)<<32|uint64(j)), append(w, wt)
			}
		}
	}
	return keys, w
}

// setCSR replaces the adjacency with a CSR base holding exactly the
// undirected edges keys[i] = a<<32|b (a < b, ascending, distinct) of weight
// w[i], over every interned user. Filling both directions in key order
// leaves each span sorted: node x first receives its partners a < x, in
// ascending a, then its partners b > x, in ascending b.
func (g *Graph) setCSR(keys []uint64, w []float64) {
	n := g.users.Len()
	off := make([]uint32, n+1)
	for _, k := range keys {
		off[k>>32+1]++
		off[uint32(k)+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	nbr := make([]uint32, off[n])
	wt := make([]float64, off[n])
	cursor := slices.Clone(off[:n])
	for i, k := range keys {
		a, b := uint32(k>>32), uint32(k)
		nbr[cursor[a]], wt[cursor[a]] = b, w[i]
		cursor[a]++
		nbr[cursor[b]], wt[cursor[b]] = a, w[i]
		cursor[b]++
	}
	g.off, g.nbr, g.wt = off, nbr, wt
	g.ov, g.ovLen = nil, 0
	g.edges = len(keys)
}

func (g *Graph) overlayOf(i uint32) []oedge {
	if int(i) < len(g.ov) {
		return g.ov[i]
	}
	return nil
}

// OverlayLen returns the number of directed overlay entries — the "not yet
// compacted" portion of the adjacency, surfaced in update reports.
func (g *Graph) OverlayLen() int { return g.ovLen }

// weightDense returns the weight of the directed half-edge a→b, or 0.
func (g *Graph) weightDense(a, b uint32) float64 {
	if i, ok := g.findBase(a, b); ok {
		return g.wt[i]
	}
	for _, e := range g.overlayOf(a) {
		if e.to == b {
			return e.w
		}
		if e.to > b {
			break
		}
	}
	return 0
}

// Weight returns the weight of edge (u, v), or 0 if absent.
func (g *Graph) Weight(u, v string) float64 {
	iu, ok := g.users.Lookup(u)
	if !ok {
		return 0
	}
	iv, ok := g.users.Lookup(v)
	if !ok {
		return 0
	}
	return g.weightDense(iu, iv)
}

// neighborsDense calls f for every neighbor of node i with the half-edge
// weight, base entries before overlay entries.
func (g *Graph) neighborsDense(i uint32, f func(j uint32, w float64)) {
	lo, hi := g.baseSpan(i)
	for ; lo < hi; lo++ {
		f(g.nbr[lo], g.wt[lo])
	}
	for _, e := range g.overlayOf(i) {
		f(e.to, e.w)
	}
}

// eachEdgeDense calls f once per undirected edge (iu < iv), in unspecified
// order. Callers needing determinism must impose their own total order on
// what f observes.
func (g *Graph) eachEdgeDense(f func(iu, iv uint32, w float64)) {
	n := uint32(g.users.Len())
	for i := uint32(0); i < n; i++ {
		lo, hi := g.baseSpan(i)
		for ; lo < hi; lo++ {
			if j := g.nbr[lo]; i < j {
				f(i, j, g.wt[lo])
			}
		}
		for _, e := range g.overlayOf(i) {
			if i < e.to {
				f(i, e.to, e.w)
			}
		}
	}
}

// rankedEdge is one undirected edge keyed by its endpoints' name ranks:
// key = rank U<<32 | rank V with rank U < rank V, where a user's rank is its
// position in name order. Names are distinct, so ordering keys orders the
// edges by (U, V) names without a string comparison per step.
type rankedEdge struct {
	key uint64
	w   float64
}

// rankedEdges returns every undirected edge once, in unspecified order, and
// byName, the dense user id at each name rank.
func (g *Graph) rankedEdges() (rs []rankedEdge, byName []uint32) {
	names := g.users.names
	byName = make([]uint32, len(names))
	for i := range byName {
		byName[i] = uint32(i)
	}
	slices.SortFunc(byName, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]uint32, len(names))
	for r, i := range byName {
		rank[i] = uint32(r)
	}
	rs = make([]rankedEdge, 0, g.edges)
	g.eachEdgeDense(func(iu, iv uint32, w float64) {
		a, b := rank[iu], rank[iv]
		if a > b {
			a, b = b, a
		}
		rs = append(rs, rankedEdge{uint64(a)<<32 | uint64(b), w})
	})
	return rs, byName
}

// Edges returns every undirected edge exactly once, sorted by (U, V) for
// determinism.
func (g *Graph) Edges() []Edge {
	rs, byName := g.rankedEdges()
	slices.SortFunc(rs, func(x, y rankedEdge) int { return cmp.Compare(x.key, y.key) })
	names := g.users.names
	es := make([]Edge, len(rs))
	for i, r := range rs {
		es[i] = Edge{U: names[byName[r.key>>32]], V: names[byName[uint32(r.key)]], W: r.w}
	}
	return es
}

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Equal reports whether h interns the same users under the same ids and
// holds the same weighted edges, however either splits them between CSR
// base and overlay.
func (g *Graph) Equal(h *Graph) bool {
	if g.edges != h.edges || !slices.Equal(g.users.names, h.users.names) {
		return false
	}
	same := true
	for i := uint32(0); same && int(i) < g.users.Len(); i++ {
		g.neighborsDense(i, func(j uint32, w float64) {
			same = same && h.weightDense(i, j) == w
		})
	}
	return same
}

// Neighbors calls f for every neighbor of u with the edge weight.
func (g *Graph) Neighbors(u string, f func(v string, w float64)) {
	iu, ok := g.users.Lookup(u)
	if !ok {
		return
	}
	g.neighborsDense(iu, func(j uint32, w float64) {
		f(g.users.Name(j), w)
	})
}

// Interests maps a user to the set of video ids they are interested in
// (owned or commented). It is the input from which the UIG is built.
type Interests map[string][]string

// BuildUIG constructs the user interest graph from per-video audiences: for
// each video, every pair of its users gains one unit of edge weight ("the
// weight of an edge linking two users denotes the number of common
// interested videos shared by them"). audiences maps video id → user ids.
// Every user becomes a node even if it shares no video with anyone.
//
// Construction is bulk: per-video pairs are emitted as packed uint64 id
// keys, sorted once, and run-length counted straight into the CSR base —
// no per-edge map traffic. Node ids follow (sorted video id, sorted user
// name) encounter order, so the graph is deterministic given the map's
// contents.
func BuildUIG(audiences map[string][]string) *Graph {
	g := NewGraph()
	vids := make([]string, 0, len(audiences))
	for vid := range audiences {
		vids = append(vids, vid)
	}
	sort.Strings(vids)

	var pairs []uint64
	ids := make([]uint32, 0, 64)
	for _, vid := range vids {
		users := DedupeUsers(audiences[vid])
		ids = ids[:0]
		for _, u := range users {
			i, _ := g.internUser(u)
			ids = append(ids, i)
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if a > b {
					a, b = b, a
				}
				pairs = append(pairs, uint64(a)<<32|uint64(b))
			}
		}
	}
	slices.Sort(pairs)

	// Run-length count the sorted keys in place into the distinct edges.
	keys := pairs[:0]
	var wts []float64
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		keys = append(keys, pairs[i])
		wts = append(wts, float64(j-i))
		i = j
	}
	g.setCSR(keys, wts)
	return g
}
