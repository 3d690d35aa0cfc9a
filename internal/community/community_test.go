package community

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// cno is the sub-community of a user, -1 when unassigned — test shorthand
// over the dense partition.
func cno(p *Partition, u string) int {
	c, ok := p.Lookup(u)
	if !ok {
		return -1
	}
	return c
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddEdgeWeight("a", "b", 2)
	g.AddEdgeWeight("b", "a", 1) // accumulates, undirected
	g.AddEdgeWeight("c", "c", 5) // self-loop ignored
	g.AddUser("lonely")
	if g.NumUsers() != 4 {
		t.Errorf("NumUsers = %d, want 4", g.NumUsers())
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w := g.Weight("a", "b"); w != 3 {
		t.Errorf("Weight(a,b) = %g, want 3", w)
	}
	if w := g.Weight("a", "zz"); w != 0 {
		t.Errorf("Weight to unknown = %g, want 0", w)
	}
	if !g.HasUser("lonely") || g.HasUser("nobody") {
		t.Error("HasUser wrong")
	}
}

func TestGraphEdgesDeterministic(t *testing.T) {
	g := NewGraph()
	g.AddEdgeWeight("b", "c", 1)
	g.AddEdgeWeight("a", "b", 2)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("edges = %d, want 2", len(es))
	}
	if es[0].U != "a" || es[0].V != "b" || es[1].U != "b" || es[1].V != "c" {
		t.Errorf("edges not sorted: %+v", es)
	}
}

// The paper's worked example: 8 videos, 5 users (Figure 2).
func paperExampleGraph() *Graph {
	return BuildUIG(map[string][]string{
		"V1": {"u1", "u4"},
		"V2": {"u3"},
		"V3": {"u1", "u2"},
		"V4": {"u3", "u4", "u5"},
		"V5": {"u3", "u4", "u5"},
		"V6": {"u5"},
		"V7": {"u5"},
		"V8": {"u1", "u2"},
	})
}

func TestBuildUIGPaperExample(t *testing.T) {
	g := paperExampleGraph()
	if g.NumUsers() != 5 {
		t.Fatalf("users = %d, want 5", g.NumUsers())
	}
	// u1-u2 share V3 and V8 → weight 2; u3-u4 share V4,V5 → 2; u3-u5 → 2;
	// u4-u5 → 2; u1-u4 share V1 → 1.
	cases := []struct {
		u, v string
		w    float64
	}{
		{"u1", "u2", 2}, {"u3", "u4", 2}, {"u3", "u5", 2},
		{"u4", "u5", 2}, {"u1", "u4", 1}, {"u1", "u3", 0}, {"u2", "u5", 0},
	}
	for _, c := range cases {
		if got := g.Weight(c.u, c.v); got != c.w {
			t.Errorf("Weight(%s,%s) = %g, want %g", c.u, c.v, got, c.w)
		}
	}
}

func TestBuildUIGDedupesAudience(t *testing.T) {
	g := BuildUIG(map[string][]string{"V1": {"a", "a", "b", ""}})
	if got := g.Weight("a", "b"); got != 1 {
		t.Errorf("duplicate commenters inflated weight: %g", got)
	}
	if g.HasUser("") {
		t.Error("empty user id became a node")
	}
}

func TestExtractPaperExample(t *testing.T) {
	g := paperExampleGraph()
	// Removing the lightest edge (u1-u4, weight 1) yields 2 components:
	// {u1,u2} and {u3,u4,u5}.
	p := ExtractSubCommunities(g, 2)
	if p.Dim != 2 {
		t.Fatalf("Dim = %d, want 2", p.Dim)
	}
	if cno(p, "u1") != cno(p, "u2") {
		t.Error("u1 and u2 should share a sub-community")
	}
	if cno(p, "u3") != cno(p, "u4") || cno(p, "u4") != cno(p, "u5") {
		t.Error("u3, u4, u5 should share a sub-community")
	}
	if cno(p, "u1") == cno(p, "u3") {
		t.Error("u1 and u3 should be separated")
	}
	if p.LightestIntra != 2 {
		t.Errorf("LightestIntra = %g, want 2", p.LightestIntra)
	}
}

func TestExtractKEqualsOne(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 1)
	if p.Dim != 1 {
		t.Errorf("Dim = %d, want 1 (graph is connected)", p.Dim)
	}
}

func TestExtractKLargerThanUsers(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 50)
	if p.Dim != 5 {
		t.Errorf("Dim = %d, want 5 (one per user)", p.Dim)
	}
	if !math.IsInf(p.LightestIntra, 1) {
		t.Errorf("LightestIntra = %g, want +Inf (no intra edges)", p.LightestIntra)
	}
}

func TestExtractAlreadyDisconnected(t *testing.T) {
	g := NewGraph()
	g.AddEdgeWeight("a", "b", 5)
	g.AddEdgeWeight("c", "d", 5)
	g.AddEdgeWeight("e", "f", 5)
	p := ExtractSubCommunities(g, 2)
	// 3 natural components > k: removal stops immediately.
	if p.Dim != 3 {
		t.Errorf("Dim = %d, want 3", p.Dim)
	}
}

func TestExtractSizesSumToUsers(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 3)
	total := 0
	for _, s := range p.Sizes() {
		total += s
	}
	if total != g.NumUsers() {
		t.Errorf("sizes sum to %d, want %d", total, g.NumUsers())
	}
}

func randomGraph(rng *rand.Rand, users, edges int) *Graph {
	g := NewGraph()
	for i := 0; i < users; i++ {
		g.AddUser(fmt.Sprintf("u%d", i))
	}
	for e := 0; e < edges; e++ {
		u := fmt.Sprintf("u%d", rng.Intn(users))
		v := fmt.Sprintf("u%d", rng.Intn(users))
		g.AddEdgeWeight(u, v, float64(1+rng.Intn(9)))
	}
	return g
}

// The headline correctness property: the efficient Kruskal dual produces
// exactly the partition of the literal Figure 3 removal loop.
func TestPropertyKruskalDualMatchesLiteral(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 2 + rng.Intn(25)
		g := randomGraph(rng, users, rng.Intn(60))
		k := 1 + rng.Intn(users)
		fast := ExtractSubCommunities(g, k)
		slow := ExtractLiteral(g, k)
		if fast.Dim != slow.Dim {
			t.Logf("seed %d: Dim %d vs %d", seed, fast.Dim, slow.Dim)
			return false
		}
		// Partitions must be identical up to id renaming; ids are assigned
		// by first appearance in both, so they must match exactly.
		slowAssign := slow.AssignMap()
		for u, c := range fast.AssignMap() {
			if slowAssign[u] != c {
				t.Logf("seed %d: user %s assigned %d vs %d", seed, u, c, slowAssign[u])
				return false
			}
		}
		if fast.LightestIntra != slow.LightestIntra {
			t.Logf("seed %d: w %g vs %g", seed, fast.LightestIntra, slow.LightestIntra)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// extractByNamedEdges is the string-edge form of ExtractSubCommunities:
// every edge as a named Edge, sorted descending by edgeLess, both names
// looked up again before each union. It is the reference the dense-id
// extraction is held to.
func extractByNamedEdges(g *Graph, k int) *Partition {
	if k < 1 {
		k = 1
	}
	n := g.NumUsers()
	uf := newUnionFind(n)
	edges := g.Edges()
	sort.Slice(edges, func(a, b int) bool { return edgeLess(edges[b], edges[a]) })
	count := n
	lightest := math.Inf(1)
	for _, e := range edges {
		iu, _ := g.users.Lookup(e.U)
		iv, _ := g.users.Lookup(e.V)
		if uf.find(int(iu)) != uf.find(int(iv)) {
			if count <= k {
				break
			}
			uf.union(int(iu), int(iv))
			count--
		}
		if e.W < lightest {
			lightest = e.W
		}
	}
	return partitionFromRoots(g, uf, k, lightest)
}

// tiedGraph is a random graph whose users are interned in shuffled order
// under names whose numeric and lexical orders differ (u2 sorts after u10),
// with weights drawn from {1, 2, 3} so most edges tie on weight. Half the
// graphs are built in one bulk pass (all CSR base), half edge by edge (base
// plus overlay).
func tiedGraph(rng *rand.Rand, users, edges int) *Graph {
	names := make([]string, users)
	for i, j := range rng.Perm(users) {
		names[i] = fmt.Sprintf("u%d", j)
	}
	var es []Edge
	for e := 0; e < edges; e++ {
		es = append(es, Edge{U: names[rng.Intn(users)], V: names[rng.Intn(users)], W: float64(1 + rng.Intn(3))})
	}
	if rng.Intn(2) == 0 {
		return GraphFromEdges(names, es)
	}
	g := NewGraph()
	for _, u := range names {
		g.AddUser(u)
	}
	for _, e := range es {
		g.AddEdgeWeight(e.U, e.V, e.W)
	}
	return g
}

// TestDenseExtractionMatchesNamedEdges holds ExtractSubCommunities, which
// sorts rank-keyed edges and unions by dense id, to the string-edge
// reference: the same Dim, the same assignment id for id, and the same
// lightest intra edge, bit for bit, for k on both sides of the graph's
// natural component count.
func TestDenseExtractionMatchesNamedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		users := 1 + rng.Intn(60)
		g := tiedGraph(rng, users, rng.Intn(3*users+1))
		components := extractByNamedEdges(g, 1).Dim // k = 1 unions every edge it can
		for _, k := range []int{0, 1, 2, components - 1, components, components + 1, users - 1, users, users + 5} {
			want, got := extractByNamedEdges(g, k), ExtractSubCommunities(g, k)
			if got.K != want.K || got.Dim != want.Dim ||
				math.Float64bits(got.LightestIntra) != math.Float64bits(want.LightestIntra) ||
				!got.SameAssignment(want) {
				t.Fatalf("trial %d (%d users, %d edges, %d components), k=%d: dense extraction (dim %d, w %g) differs from the named-edge reference (dim %d, w %g)",
					trial, users, g.NumEdges(), components, k, got.Dim, got.LightestIntra, want.Dim, want.LightestIntra)
			}
		}
	}
}

// Every extraction invariant: Dim communities, every user assigned, ids
// dense in [0, Dim).
func TestPropertyPartitionWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 1 + rng.Intn(30)
		g := randomGraph(rng, users, rng.Intn(80))
		k := 1 + rng.Intn(users+3)
		p := ExtractSubCommunities(g, k)
		if p.Len() != users {
			return false
		}
		seen := map[int]bool{}
		for _, c := range p.AssignMap() {
			if c < 0 || c >= p.Dim {
				return false
			}
			seen[c] = true
		}
		return len(seen) == p.Dim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainerUnion(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 2) // w = 2
	m := NewMaintainer(g, p)
	c2, c3 := cno(p, "u2"), cno(p, "u3")
	// A heavy new connection across the two communities (weight 3 > w=2)
	// must union them; the split pass then restores k=2.
	st := m.ApplyConnections([]Edge{{U: "u2", V: "u3", W: 3}})
	if st.Unions != 1 {
		t.Fatalf("Unions = %d, want 1", st.Unions)
	}
	if st.Splits != 1 {
		t.Errorf("Splits = %d, want 1 (restore k)", st.Splits)
	}
	if got := m.liveCount(); got != 2 {
		t.Errorf("live communities = %d, want 2", got)
	}
	// The union changed both ids and the split reused the freed one: the
	// pass touched exactly the two dimensions, once each, ascending. A
	// split moves users but gives none a first sub-community.
	if want := []int{min(c2, c3), max(c2, c3)}; !slices.Equal(m.Touched(), want) {
		t.Errorf("Touched = %v, want %v", m.Touched(), want)
	}
	if len(m.Entered()) != 0 {
		t.Errorf("Entered = %v, want none", m.Entered())
	}
	// The next pass reports only itself.
	m.ApplyConnections([]Edge{{U: "u1", V: "u2", W: 1}})
	if len(m.Touched()) != 0 || len(m.Entered()) != 0 {
		t.Errorf("quiet pass reported touched %v, entered %v", m.Touched(), m.Entered())
	}
}

// A union and a split each report the two dimensions they change, also
// when the other does not run: a union that leaves k communities live
// needs no split, and a partition below k splits without a union.
func TestMaintainerTouchesEachChange(t *testing.T) {
	graph := func() *Graph {
		g := NewGraph()
		g.AddEdgeWeight("a1", "a2", 5)
		g.AddEdgeWeight("b1", "b2", 5)
		g.AddEdgeWeight("a2", "b1", 1)
		g.AddEdgeWeight("c1", "c2", 5)
		return g
	}

	g := graph()
	three := map[string]int{"a1": 0, "a2": 0, "b1": 1, "b2": 1, "c1": 2, "c2": 2}
	p := NewPartition(g.UserTable(), 2, 3, 5, three)
	m := NewMaintainer(g, p)
	st := m.ApplyConnections([]Edge{{U: "a1", V: "b2", W: 9}})
	if st.Unions != 1 || st.Splits != 0 {
		t.Fatalf("union pass %+v, want one union and no split", st)
	}
	if want := []int{0, 1}; !slices.Equal(m.Touched(), want) {
		t.Errorf("union: Touched = %v, want %v", m.Touched(), want)
	}

	// The split cuts the a2–b1 bridge, the lightest edge: b1 and b2 move
	// to the fresh dimension 2.
	g = graph()
	two := map[string]int{"a1": 0, "a2": 0, "b1": 0, "b2": 0, "c1": 1, "c2": 1}
	p = NewPartition(g.UserTable(), 3, 2, 5, two)
	m = NewMaintainer(g, p)
	st = m.ApplyConnections(nil)
	if st.Unions != 0 || st.Splits != 1 {
		t.Fatalf("split pass %+v, want one split and no union", st)
	}
	if want := []int{0, 2}; !slices.Equal(m.Touched(), want) {
		t.Errorf("split: Touched = %v, want %v", m.Touched(), want)
	}
	if cno(p, "a2") != 0 || cno(p, "b1") != 2 || cno(p, "b2") != 2 || len(m.Entered()) != 0 {
		t.Errorf("split left %v, entered %v; want a2 in 0, b1 and b2 in 2, none entered", p.AssignMap(), m.Entered())
	}
}

func TestMaintainerLightConnectionNoUnion(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 2) // w = 2
	m := NewMaintainer(g, p)
	st := m.ApplyConnections([]Edge{{U: "u2", V: "u3", W: 1}}) // 1 <= w
	if st.Unions != 0 || st.Splits != 0 {
		t.Errorf("light edge caused unions=%d splits=%d", st.Unions, st.Splits)
	}
	if cno(p, "u2") == cno(p, "u3") {
		t.Error("communities merged despite light connection")
	}
}

func TestMaintainerNewUserAssignment(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 2)
	m := NewMaintainer(g, p)
	st := m.ApplyConnections([]Edge{
		{U: "newbie", V: "u5", W: 1},
		{U: "chain", V: "newbie", W: 1},
	})
	if st.NewUsersAssigned != 2 {
		t.Fatalf("NewUsersAssigned = %d, want 2", st.NewUsersAssigned)
	}
	if cno(p, "newbie") != cno(p, "u5") {
		t.Error("newbie should join u5's community")
	}
	if cno(p, "chain") != cno(p, "newbie") {
		t.Error("chained new user should follow its neighbour")
	}
	// Assignment order: "chain" sorts first but waits for "newbie".
	if want := []string{"newbie", "chain"}; !slices.Equal(m.Entered(), want) {
		t.Errorf("Entered = %v, want %v", m.Entered(), want)
	}
	if want := []int{cno(p, "u5")}; !slices.Equal(m.Touched(), want) {
		t.Errorf("Touched = %v, want %v", m.Touched(), want)
	}
}

// New users minted in one pass are assigned in name order, so a journal
// replay reproduces the live run whatever order the batch minted them in.
// Here "na" < "nb" are minted nb first and joined by a weight-2 edge; "na"
// hangs off u2's community C1 and "nb" off u5's C2 by weight-1 edges. In
// name order "na" joins C1 and "nb" follows its heavier neighbour "na"; in
// mint or reverse order both would join C2.
func TestMaintainerNewUsersAssignedInNameOrder(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 2) // w = 2: no edge below unions
	c1, c2 := cno(p, "u2"), cno(p, "u5")
	if c1 == c2 {
		t.Fatal("setup: u2 and u5 should start in different communities")
	}
	m := NewMaintainer(g, p)
	st := m.ApplyConnections([]Edge{
		{U: "nb", V: "u5", W: 1},
		{U: "na", V: "nb", W: 2},
		{U: "na", V: "u2", W: 1},
	})
	if st.NewUsersAssigned != 2 || st.Unions != 0 || st.Splits != 0 {
		t.Fatalf("pass %+v, want two first assignments and no union or split", st)
	}
	if cno(p, "na") != c1 || cno(p, "nb") != c1 {
		t.Errorf("na in %d, nb in %d; name order puts both in C1 = %d (C2 = %d)", cno(p, "na"), cno(p, "nb"), c1, c2)
	}
	if want := []string{"na", "nb"}; !slices.Equal(m.Entered(), want) {
		t.Errorf("Entered = %v, want %v", m.Entered(), want)
	}
	if want := []int{c1}; !slices.Equal(m.Touched(), want) {
		t.Errorf("Touched = %v, want %v", m.Touched(), want)
	}
}

func TestMaintainerIsolatedNewUserStaysOut(t *testing.T) {
	g := paperExampleGraph()
	p := ExtractSubCommunities(g, 2)
	m := NewMaintainer(g, p)
	st := m.ApplyConnections([]Edge{{U: "lost1", V: "lost2", W: 1}})
	if st.NewUsersAssigned != 0 {
		t.Errorf("NewUsersAssigned = %d, want 0", st.NewUsersAssigned)
	}
	if _, ok := p.Lookup("lost1"); ok {
		t.Error("isolated new user got an assignment")
	}
}

func TestMaintainerSplitRestoresK(t *testing.T) {
	// Two clusters bridged by a light edge, k=2; then a heavy connection
	// merges them and the split must recreate two communities.
	g := NewGraph()
	g.AddEdgeWeight("a1", "a2", 5)
	g.AddEdgeWeight("a2", "a3", 5)
	g.AddEdgeWeight("b1", "b2", 5)
	g.AddEdgeWeight("b2", "b3", 5)
	g.AddEdgeWeight("a3", "b1", 1)
	p := ExtractSubCommunities(g, 2)
	if cno(p, "a1") == cno(p, "b1") {
		t.Fatal("setup: clusters should start separated")
	}
	m := NewMaintainer(g, p)
	st := m.ApplyConnections([]Edge{{U: "a1", V: "b3", W: 9}})
	if st.Unions != 1 {
		t.Fatalf("Unions = %d, want 1", st.Unions)
	}
	if st.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", st.Splits)
	}
	if m.liveCount() != 2 {
		t.Errorf("live communities = %d, want 2", m.liveCount())
	}
}

func TestMaintainerStatsCostModel(t *testing.T) {
	st := Stats{
		NewConnections: 10,
		Unions:         1,
		UnionSizes:     []int{4},
		Splits:         1,
		SplitSizes:     []int{6},
	}
	c := CostConstants{Ch: 1, T1: 2, T2: 3, T3: 4}
	// 10*1 + (4*2 + 2*3) + (6*(2+4) + 5*3) = 10 + 14 + 51 = 75.
	got := EstimateCost(c, st, []int{2}, []int{5})
	if got != 75 {
		t.Errorf("EstimateCost = %g, want 75", got)
	}
	// Missing video counts are treated as zero.
	got = EstimateCost(c, st, nil, nil)
	if got != 10+4*2+6*6 {
		t.Errorf("EstimateCost without videos = %g", got)
	}
}

// Maintenance preserves partition well-formedness under random update
// streams.
func TestPropertyMaintenanceWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 6 + rng.Intn(20)
		g := randomGraph(rng, users, 20+rng.Intn(40))
		k := 2 + rng.Intn(5)
		p := ExtractSubCommunities(g, k)
		m := NewMaintainer(g, p)
		for round := 0; round < 3; round++ {
			var batch []Edge
			for e := 0; e < rng.Intn(10); e++ {
				batch = append(batch, Edge{
					U: fmt.Sprintf("u%d", rng.Intn(users+4)),
					V: fmt.Sprintf("u%d", rng.Intn(users+4)),
					W: float64(1 + rng.Intn(12)),
				})
			}
			m.ApplyConnections(batch)
		}
		// Every assigned id is in [0, Dim); assigned users are graph nodes.
		for u, c := range p.AssignMap() {
			if c < 0 || c >= p.Dim {
				return false
			}
			if !g.HasUser(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExtractSubCommunities(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 2000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractSubCommunities(g, 60)
	}
}

func BenchmarkApplyConnections(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 1000, 5000)
	p := ExtractSubCommunities(g, 60)
	m := NewMaintainer(g, p)
	batch := make([]Edge, 100)
	for i := range batch {
		batch[i] = Edge{
			U: fmt.Sprintf("u%d", rng.Intn(1100)),
			V: fmt.Sprintf("u%d", rng.Intn(1100)),
			W: float64(1 + rng.Intn(10)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyConnections(batch)
	}
}
