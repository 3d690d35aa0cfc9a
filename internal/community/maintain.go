package community

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Stats summarizes one maintenance pass; it carries the quantities of the
// cost model of Equation 8.
type Stats struct {
	NewConnections   int   // |E|
	Unions           int   // |{g_ui}|
	Splits           int   // |{g_si}|
	UnionSizes       []int // |g_ui| for each union (size of the absorbed community)
	SplitSizes       []int // |g_si| for each split (size of the community before splitting)
	NewUsersAssigned int
	UsersMoved       int
}

// Maintainer applies social updates to a partition in place (Figure 5). It
// owns the UIG and the partition it was built with; the caller streams new
// connections through ApplyConnections.
//
// A pass reports what it changed rather than patching dependants itself:
// Touched and Entered name the dimensions and users whose descriptor
// vectors the caller must re-derive (lines 9–10 and 19–20 of Figure 5). The
// partition is the only user → sub-community map, so nothing else needs
// patching.
//
// All pass-local state (community sizes, the live-id set, new-user queues,
// the touched and entered sets, the induced subgraph a split extracts over)
// lives in pooled scratch buffers: a steady-state pass — existing users,
// weights at or below the union threshold — allocates nothing (pinned by an
// AllocsPerRun test).
type Maintainer struct {
	g    *Graph
	p    *Partition
	free []int // sub-community ids released by unions, reused by splits

	// Pooled pass scratch.
	sizes    []int32  // community id → member count
	newUsers []uint32 // dense ids minted by the current pass
	touched  []int    // sub-community ids whose membership the pass changed
	entered  []string // users the pass gave a first sub-community, in assignment order
	split    splitScratch
}

// splitScratch is the pooled induced-subgraph state of splitLightest: the
// member list of the community being split, a global→local id map, the
// local edge list and the union-find that extracts two pieces from it.
type splitScratch struct {
	members []uint32 // member ids, sorted by user name
	local   []int32  // global user id → local index; -1 outside the community
	edges   []splitEdge
	parent  []int32
	rank    []int8
	subOf   []int32 // local index → piece number (dense, by first appearance)
}

type splitEdge struct {
	u, v int32
	w    float64
}

// NewMaintainer wraps a graph and its partition for incremental updates.
func NewMaintainer(g *Graph, p *Partition) *Maintainer {
	return &Maintainer{g: g, p: p}
}

// Partition returns the live partition (mutated by ApplyConnections).
func (m *Maintainer) Partition() *Partition { return m.p }

// SetPartition repoints the maintainer at a replacement partition object
// while keeping its free-id pool. Copy-on-write callers clone the partition
// a published read view shares before the next maintenance pass and rebind
// the maintainer to the private copy.
func (m *Maintainer) SetPartition(p *Partition) { m.p = p }

// Graph returns the live UIG (mutated by ApplyConnections).
func (m *Maintainer) Graph() *Graph { return m.g }

// Touched returns the sub-community ids whose membership the latest
// ApplyConnections changed, ascending and each once: the dimensions of
// every video descriptor that pass may have altered. The slice is reused by
// the next pass.
func (m *Maintainer) Touched() []int { return m.touched }

// Entered returns the users the latest ApplyConnections gave their first
// sub-community, in assignment order. Users a split moves are never in it.
// The slice is reused by the next pass.
func (m *Maintainer) Entered() []string { return m.entered }

// ApplyConnections performs one maintenance pass over a batch of new social
// connections (Figure 5):
//
//  1. the connections are merged into the UIG; users never seen before are
//     attached to the sub-community of their heaviest known neighbour;
//  2. a connection heavier than w joining two sub-communities unions them
//     (absorbing the smaller into the larger, freeing the absorbed id);
//  3. while fewer than k sub-communities remain, the community holding the
//     lightest internal edge is split in two (reusing a freed id);
//  4. the changed dimensions and first-time users are recorded for
//     Touched and Entered; w keeps its extraction-time value.
func (m *Maintainer) ApplyConnections(edges []Edge) Stats {
	var st Stats
	st.NewConnections = len(edges)
	w := m.p.LightestIntra
	m.touched, m.entered = m.touched[:0], m.entered[:0]

	// Step 1: merge connections into the UIG, remembering new users. Edge
	// names are interned once here; everything after runs on dense ids.
	m.newUsers = m.newUsers[:0]
	for _, e := range edges {
		if e.U == e.V || e.W <= 0 || e.U == "" || e.V == "" {
			continue
		}
		iu, freshU := m.g.internUser(e.U)
		if freshU {
			m.newUsers = append(m.newUsers, iu)
		}
		iv, freshV := m.g.internUser(e.V)
		if freshV {
			m.newUsers = append(m.newUsers, iv)
		}
		m.g.addEdgeDense(iu, iv, e.W)
	}
	// Minting may have copy-on-write replaced the intern table; the
	// partition must follow the graph's current table and cover the new ids.
	m.p.syncTable(m.g.users)
	st.NewUsersAssigned = m.assignNewUsers()

	// Step 2: union pass. A fresh connection heavier than w that bridges
	// two sub-communities means they have grown together. Membership is
	// resolved now — not in step 1 — so chained assignments are visible.
	for _, e := range edges {
		if e.W <= w {
			continue
		}
		iu, uok := m.g.users.Lookup(e.U)
		iv, vok := m.g.users.Lookup(e.V)
		if !uok || !vok {
			continue
		}
		ci, cj := m.p.lookupDense(iu), m.p.lookupDense(iv)
		if ci < 0 || cj < 0 || ci == cj {
			continue
		}
		m.union(int(ci), int(cj), &st)
	}

	// Step 3: split pass — restore k sub-communities.
	for m.liveCount() < m.p.K {
		if !m.splitLightest(&st) {
			break // nothing splittable left
		}
	}

	// Step 4: w stays at its extraction-time value. Newly attached users
	// hang off their communities by weight-1 edges; folding those into w
	// would drag the union threshold to 1 and make the next batch merge
	// every fandom a single shared video connects (observed as a partition
	// collapse after two update rounds). The separating threshold the
	// extraction established is the meaningful "lightest edge of the
	// original sub-communities" of §4.2.4.
	slices.Sort(m.touched)
	m.touched = slices.Compact(m.touched)
	return st
}

// assignNewUsers attaches the pass's minted users to the sub-community of
// their heaviest already-assigned neighbour, iterating so chains of new
// users resolve. Users with no assigned neighbour stay outside the
// dictionary until the next full rebuild.
func (m *Maintainer) assignNewUsers() int {
	if len(m.newUsers) == 0 {
		return 0
	}
	// Deterministic order: assignment of one new user can decide which
	// community a chained neighbour joins, and replaying a journal must
	// reproduce the live run exactly. Sorting by name (not id) preserves the
	// order the string-keyed implementation established.
	pending := m.newUsers
	names := m.g.users
	slices.SortFunc(pending, func(a, b uint32) int { return strings.Compare(names.Name(a), names.Name(b)) })
	assigned := 0
	for {
		progress := false
		for _, u := range pending {
			if m.p.assign[u] >= 0 {
				continue
			}
			bestW := 0.0
			bestC := int32(-1)
			bestName := ""
			m.g.neighborsDense(u, func(v uint32, w float64) {
				c := m.p.lookupDense(v)
				if c < 0 {
					return
				}
				// Deterministic tie-break by neighbour name, independent of
				// adjacency iteration order.
				if w > bestW || (w == bestW && (bestName == "" || names.Name(v) < bestName)) {
					bestW = w
					bestC = c
					bestName = names.Name(v)
				}
			})
			if bestC >= 0 {
				m.p.assign[u] = bestC
				m.entered = append(m.entered, names.Name(u))
				m.touched = append(m.touched, int(bestC))
				assigned++
				progress = true
			}
		}
		if !progress {
			return assigned
		}
	}
}

// computeSizes refreshes the pooled per-community member counts.
func (m *Maintainer) computeSizes() []int32 {
	sizes := m.sizes
	if cap(sizes) < m.p.Dim {
		sizes = make([]int32, m.p.Dim)
	}
	sizes = sizes[:m.p.Dim]
	clear(sizes)
	for _, c := range m.p.assign {
		if c >= 0 {
			sizes[c]++
		}
	}
	m.sizes = sizes
	return sizes
}

// union absorbs the smaller of the two sub-communities into the larger one.
func (m *Maintainer) union(a, b int, st *Stats) {
	sizes := m.computeSizes()
	if sizes[a] < sizes[b] {
		a, b = b, a // absorb b into a
	}
	moved := 0
	for i, c := range m.p.assign {
		if int(c) == b {
			m.p.assign[i] = int32(a)
			moved++
		}
	}
	m.free = append(m.free, b)
	st.Unions++
	st.UnionSizes = append(st.UnionSizes, moved)
	st.UsersMoved += moved
	m.touched = append(m.touched, a, b)
}

// splitLightest splits the sub-community containing the globally lightest
// internal edge. It reports false when no community can be split (all
// singletons or no internal edges).
func (m *Maintainer) splitLightest(st *Stats) bool {
	target, ok := m.communityWithLightestEdge()
	if !ok {
		return false
	}
	s := &m.split
	names := m.g.users

	// Members of the target community, sorted by user name: the induced
	// subgraph's local ids follow name order, so every tie-break below that
	// compares local ids reproduces the string-keyed implementation's name
	// comparisons exactly.
	s.members = s.members[:0]
	for i, c := range m.p.assign {
		if int(c) == target {
			s.members = append(s.members, uint32(i))
		}
	}
	slices.SortFunc(s.members, func(a, b uint32) int { return strings.Compare(names.Name(a), names.Name(b)) })

	// Global → local index map, reset member-by-member on exit.
	n := names.Len()
	if cap(s.local) < n {
		s.local = make([]int32, n)
		for i := range s.local {
			s.local[i] = -1
		}
	}
	s.local = s.local[:n]
	for li, gi := range s.members {
		s.local[gi] = int32(li)
	}
	defer func() {
		for _, gi := range s.members {
			s.local[gi] = -1
		}
	}()

	// Induced edge list: each intra-community edge once, endpoints as local
	// ids with u < v (name order).
	s.edges = s.edges[:0]
	for li, gi := range s.members {
		su := int32(li)
		m.g.neighborsDense(gi, func(gv uint32, w float64) {
			if sv := s.local[gv]; sv > su {
				s.edges = append(s.edges, splitEdge{u: su, v: sv, w: w})
			}
		})
	}

	sub, pieces := m.extractTwo()
	if pieces < 2 {
		return false
	}
	// Members of induced piece >= 1 move to a fresh id; piece 0 keeps the
	// original. When the split yields more than two pieces (already
	// disconnected), everything beyond piece 0 moves together — the next
	// loop iteration can split again if needed. The split is never
	// degenerate: extractTwo numbers pieces by first appearance in local
	// order, so member 0 is in piece 0 and stays, and with two or more
	// pieces some member is in piece 1 and moves.
	newID := m.takeID()
	moved := 0
	for li, gi := range s.members {
		if sub[li] >= 1 {
			m.p.assign[gi] = int32(newID)
			moved++
		}
	}
	st.Splits++
	st.SplitSizes = append(st.SplitSizes, len(s.members))
	st.UsersMoved += moved
	m.touched = append(m.touched, target, newID)
	return true
}

// extractTwo runs ExtractSubCommunities(·, 2) over the scratch subgraph:
// descending Kruskal over the induced edges, stopping at two components,
// then densifying roots by first appearance in local (= name) order. It
// returns the local piece assignment and the piece count.
func (m *Maintainer) extractTwo() ([]int32, int) {
	s := &m.split
	// Descending (W, U, V) order. Local ids are name-ordered, so comparing
	// them is comparing names.
	slices.SortFunc(s.edges, func(ea, eb splitEdge) int {
		if ea.w != eb.w {
			if ea.w > eb.w {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(eb.u, ea.u); c != 0 {
			return c
		}
		return cmp.Compare(eb.v, ea.v)
	})

	n := len(s.members)
	if cap(s.parent) < n {
		s.parent = make([]int32, n)
		s.rank = make([]int8, n)
	}
	s.parent, s.rank = s.parent[:n], s.rank[:n]
	for i := range s.parent {
		s.parent[i] = int32(i)
		s.rank[i] = 0
	}
	find := func(x int32) int32 {
		for s.parent[x] != x {
			s.parent[x] = s.parent[s.parent[x]]
			x = s.parent[x]
		}
		return x
	}

	count := n
	for _, e := range s.edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			if count <= 2 {
				break
			}
			if s.rank[ru] < s.rank[rv] {
				ru, rv = rv, ru
			}
			s.parent[rv] = ru
			if s.rank[ru] == s.rank[rv] {
				s.rank[ru]++
			}
			count--
		}
	}

	if cap(s.subOf) < n {
		s.subOf = make([]int32, n)
	}
	s.subOf = s.subOf[:n]
	pieces := int32(0)
	// Number pieces by first appearance in local order; reuse rank as the
	// seen marker is unsafe (it is union-find state), so mark via subOf
	// itself: roots are discovered through a two-pass sweep.
	for i := range s.subOf {
		s.subOf[i] = -1
	}
	for i := 0; i < n; i++ {
		root := find(int32(i))
		if s.subOf[root] < 0 {
			s.subOf[root] = pieces
			pieces++
		}
	}
	// Second pass: project root numbering onto every member. Roots hold
	// their own piece id already; non-roots read their root's.
	for i := 0; i < n; i++ {
		root := find(int32(i))
		if int32(i) != root {
			s.subOf[i] = s.subOf[root]
		}
	}
	return s.subOf, int(pieces)
}

// communityWithLightestEdge finds the sub-community whose internal edge set
// contains the globally lightest edge (Figure 5, line 16). Communities of
// size < 2 cannot be split and are skipped. Ties on weight resolve to the
// edge with the smallest canonical (min name, max name) pair — the edge a
// name-sorted scan would reach first.
func (m *Maintainer) communityWithLightestEdge() (int, bool) {
	sizes := m.computeSizes()
	names := m.g.users
	best := math.Inf(1)
	bestID := -1
	var bestA, bestB string
	m.g.eachEdgeDense(func(iu, iv uint32, w float64) {
		cu, cv := m.p.lookupDense(iu), m.p.lookupDense(iv)
		if cu < 0 || cu != cv || sizes[cu] < 2 {
			return
		}
		if w > best {
			return
		}
		a, b := names.Name(iu), names.Name(iv)
		if a > b {
			a, b = b, a
		}
		if w < best || a < bestA || (a == bestA && b < bestB) {
			best = w
			bestID = int(cu)
			bestA, bestB = a, b
		}
	})
	if bestID < 0 {
		// Fall back to the smallest-id community of size >= 2 (internally
		// disconnected: splittable without removing an edge).
		for id, n := range sizes {
			if n >= 2 {
				return id, true
			}
		}
		return 0, false
	}
	return bestID, true
}

// liveCount is the number of sub-community ids currently in use.
func (m *Maintainer) liveCount() int {
	sizes := m.computeSizes()
	live := 0
	for _, n := range sizes {
		if n > 0 {
			live++
		}
	}
	return live
}

// takeID reuses an id freed by a union, or mints a fresh dimension.
func (m *Maintainer) takeID() int {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	id := m.p.Dim
	m.p.Dim++
	return id
}

// CostConstants are the constants c_h, t_1, t_2, t_3 of Equation 8: the cost
// of one hash mapping, one index update, one descriptor-dimension update and
// one element check during partitioning.
type CostConstants struct {
	Ch, T1, T2, T3 float64
}

// EstimateCost evaluates Equation 8 for a maintenance pass:
//
//	|E|·c_h + Σ_unions (|g_ui|·t1 + N_ui·t2) + Σ_splits (|g_si|·(t1+t3) + N_si·t2)
//
// unionVideos[i] and splitVideos[i] are the per-community video counts N_ui
// and N_si; they must be parallel to st.UnionSizes and st.SplitSizes.
func EstimateCost(c CostConstants, st Stats, unionVideos, splitVideos []int) float64 {
	total := float64(st.NewConnections) * c.Ch
	for i, sz := range st.UnionSizes {
		nv := 0
		if i < len(unionVideos) {
			nv = unionVideos[i]
		}
		total += float64(sz)*c.T1 + float64(nv)*c.T2
	}
	for i, sz := range st.SplitSizes {
		nv := 0
		if i < len(splitVideos) {
			nv = splitVideos[i]
		}
		total += float64(sz)*(c.T1+c.T3) + float64(nv)*c.T2
	}
	return total
}
