package community

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Partition is the result of sub-community extraction: a dense sub-community
// id per user. Ids are in [0, Dim).
//
// The assignment is a flat int32 slice indexed by the dense user id of the
// shared UserTable (-1 = not assigned); the string-keyed view of it exists
// only at the boundaries (metrics, the oracle, tests) via AssignMap. Cloning
// a partition for copy-on-write publication copies the assignment slice and
// shares the table, which from then on copies itself on the first new-user
// mint (see Graph.internUser) — so a published reader never observes the
// writer's table growing underneath it.
type Partition struct {
	K             int     // requested number of sub-communities
	Dim           int     // actual number extracted (see ExtractSubCommunities)
	LightestIntra float64 // w: the lightest edge weight inside any sub-community (+Inf when no edges survive)

	users  *UserTable
	assign []int32 // dense user id → sub-community id; -1 = unassigned
}

// NewPartition builds a partition over an explicit user → sub-community
// map, interning users into the given table (minting ids for unknown
// names). It is the boundary constructor used by the version 1 snapshot
// reader, the ablations and tests; extraction, maintenance and snapshot
// restore (RestorePartition) construct partitions densely.
func NewPartition(users *UserTable, k, dim int, lightest float64, assign map[string]int) *Partition {
	p := &Partition{K: k, Dim: dim, LightestIntra: lightest, users: users}
	names := make([]string, 0, len(assign))
	for u := range assign {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		id, ok := users.Lookup(u)
		if !ok {
			id = users.insert(u)
		}
		p.growTo(int(id) + 1)
		p.assign[id] = int32(assign[u])
	}
	p.growTo(users.Len())
	return p
}

// RestorePartition builds a partition over a dense assignment aligned with
// users: assign[i] is user i's sub-community, -1 for none. The slice is
// copied. Every entry must be -1 or in [0, dim), and there may be no more
// entries than users.
func RestorePartition(users *UserTable, k, dim int, lightest float64, assign []int32) (*Partition, error) {
	if len(assign) > users.Len() {
		return nil, fmt.Errorf("community: %d assignments for %d users", len(assign), users.Len())
	}
	for i, c := range assign {
		if c < -1 || int(c) >= dim {
			return nil, fmt.Errorf("community: user %q is assigned to invalid sub-community %d (dim %d)", users.Name(uint32(i)), c, dim)
		}
	}
	p := &Partition{K: k, Dim: dim, LightestIntra: lightest, users: users, assign: slices.Clone(assign)}
	p.growTo(users.Len())
	return p, nil
}

// Assignment returns the dense assignment: user i of the partition's table
// is in sub-community Assignment()[i], -1 for none. It may be shorter than
// the table. The caller must not modify it.
func (p *Partition) Assignment() []int32 { return p.assign[:len(p.assign):len(p.assign)] }

// Users exposes the partition's intern table (shared with the graph it was
// extracted from).
func (p *Partition) Users() *UserTable { return p.users }

// growTo extends the assignment slice to cover n user ids, filling new
// slots with -1.
func (p *Partition) growTo(n int) {
	for len(p.assign) < n {
		p.assign = append(p.assign, -1)
	}
}

// syncTable repoints the partition at the graph's current table (which may
// have been copy-on-write replaced by a mint) and covers any new ids. The
// maintainer calls this after the merge step of every pass.
func (p *Partition) syncTable(t *UserTable) {
	p.users = t
	p.growTo(t.Len())
}

// Lookup returns the sub-community id of a user.
func (p *Partition) Lookup(u string) (int, bool) {
	i, ok := p.users.Lookup(u)
	if !ok || int(i) >= len(p.assign) || p.assign[i] < 0 {
		return 0, false
	}
	return int(p.assign[i]), true
}

// lookupDense returns the sub-community of a dense user id, or -1.
func (p *Partition) lookupDense(i uint32) int32 {
	if int(i) >= len(p.assign) {
		return -1
	}
	return p.assign[i]
}

// Len returns the number of assigned users.
func (p *Partition) Len() int {
	n := 0
	for _, c := range p.assign {
		if c >= 0 {
			n++
		}
	}
	return n
}

// AssignMap materializes the user → sub-community map. It allocates; use it
// at snapshot/metrics boundaries, not on hot paths.
func (p *Partition) AssignMap() map[string]int {
	out := make(map[string]int, len(p.assign))
	for i, c := range p.assign {
		if c >= 0 {
			out[p.users.Name(uint32(i))] = int(c)
		}
	}
	return out
}

// Clone returns a copy safe to mutate while the original keeps serving
// frozen readers: the assignment slice is copied, the table shared and
// marked so the next mint copies it.
func (p *Partition) Clone() *Partition {
	p.users.MarkShared()
	return &Partition{
		K:             p.K,
		Dim:           p.Dim,
		LightestIntra: p.LightestIntra,
		users:         p.users,
		assign:        append([]int32(nil), p.assign...),
	}
}

// SameAssignment reports whether q assigns every dense user id exactly as p
// does. Ids name the same users only when both partitions' tables intern in
// the same order (Graph.Equal checks that).
func (p *Partition) SameAssignment(q *Partition) bool {
	return slices.Equal(p.assign, q.assign)
}

// Sizes returns the member count per sub-community id.
func (p *Partition) Sizes() []int {
	sizes := make([]int, p.Dim)
	for _, c := range p.assign {
		if c >= 0 && int(c) < p.Dim {
			sizes[c]++
		}
	}
	return sizes
}

// edgeLess is the deterministic total order used by both extraction
// algorithms: ascending weight, ties by endpoint names. A consistent order
// is what makes the literal removal loop and the Kruskal dual provably
// produce identical partitions.
func edgeLess(a, b Edge) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// ExtractSubCommunities implements Figure 3 efficiently via the
// descending-Kruskal dual of lightest-edge removal: processing edges from
// heaviest to lightest, union components until exactly k remain; the first
// merging edge encountered at k components — and every lighter edge — is
// exactly the prefix Figure 3 removes.
//
// The actual number of sub-communities Dim can differ from k: it is k when
// the graph has at least k nodes and at most k natural components, the
// natural component count when that exceeds k (removal stops immediately),
// and the node count when the graph has fewer than k users.
func ExtractSubCommunities(g *Graph, k int) *Partition {
	if k < 1 {
		k = 1
	}
	n := g.NumUsers()
	uf := newUnionFind(n)
	// Descending edgeLess on dense ids: weight, then the endpoints' name
	// ranks, which order as the names do.
	edges, byName := g.rankedEdges()
	slices.SortFunc(edges, func(x, y rankedEdge) int {
		if x.w != y.w {
			if x.w > y.w {
				return -1
			}
			return 1
		}
		return cmp.Compare(y.key, x.key)
	})

	count := n
	lightest := math.Inf(1)
	for _, e := range edges {
		iu, iv := int(byName[e.key>>32]), int(byName[uint32(e.key)])
		if uf.find(iu) != uf.find(iv) {
			if count <= k {
				break // this edge and all lighter ones are the removed prefix
			}
			uf.union(iu, iv)
			count--
		}
		if e.w < lightest {
			lightest = e.w
		}
	}
	return partitionFromRoots(g, uf, k, lightest)
}

// ExtractLiteral is the verbatim algorithm of Figure 3: repeatedly remove
// the globally lightest remaining edge (deterministic tie-break) and recount
// connected components until at least k exist. It is quadratic and exists to
// property-test the Kruskal dual; use ExtractSubCommunities in production.
func ExtractLiteral(g *Graph, k int) *Partition {
	if k < 1 {
		k = 1
	}
	edges := g.Edges()
	sort.Slice(edges, func(a, b int) bool { return edgeLess(edges[a], edges[b]) }) // ascending

	// Live adjacency over node indices.
	n := g.NumUsers()
	alive := make([]map[int]bool, n)
	for i := range alive {
		alive[i] = make(map[int]bool)
	}
	nodeOf := func(name string) int {
		i, _ := g.users.Lookup(name)
		return int(i)
	}
	for _, e := range edges {
		iu, iv := nodeOf(e.U), nodeOf(e.V)
		alive[iu][iv] = true
		alive[iv][iu] = true
	}
	components := func() *unionFind {
		uf := newUnionFind(n)
		for iu, nbrs := range alive {
			for iv := range nbrs {
				uf.union(iu, iv)
			}
		}
		return uf
	}
	uf := components()
	removed := 0
	for uf.count < k && removed < len(edges) {
		e := edges[removed]
		removed++
		iu, iv := nodeOf(e.U), nodeOf(e.V)
		delete(alive[iu], iv)
		delete(alive[iv], iu)
		uf = components()
	}
	lightest := math.Inf(1)
	for _, e := range edges[removed:] {
		if e.W < lightest {
			lightest = e.W
		}
	}
	return partitionFromRoots(g, uf, k, lightest)
}

// partitionFromRoots densifies union-find roots into sub-community ids,
// numbering communities by first appearance in user insertion order.
func partitionFromRoots(g *Graph, uf *unionFind, k int, lightest float64) *Partition {
	n := g.NumUsers()
	assign := make([]int32, n)
	ids := make(map[int]int32)
	for i := 0; i < n; i++ {
		root := uf.find(i)
		id, ok := ids[root]
		if !ok {
			id = int32(len(ids))
			ids[root] = id
		}
		assign[i] = id
	}
	return &Partition{
		K:             k,
		Dim:           len(ids),
		LightestIntra: lightest,
		users:         g.users,
		assign:        assign,
	}
}

type unionFind struct {
	parent []int
	rank   []int
	count  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n), count: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	uf.count--
	return true
}
