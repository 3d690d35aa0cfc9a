package community

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// withCompactTrigger overrides the CSR compaction policy for the duration of
// a test and restores the default afterwards.
func withCompactTrigger(t testing.TB, f func(overlayDirected, baseDirected int) bool) {
	t.Helper()
	old := compactTrigger
	compactTrigger = f
	t.Cleanup(func() { compactTrigger = old })
}

var (
	alwaysCompact = func(int, int) bool { return true }
	neverCompact  = func(int, int) bool { return false }
)

// shadowGraph is a straightforward string-pair-keyed weight map — the data
// structure the CSR graph replaced — used as the behavioral oracle.
type shadowGraph struct {
	w     map[[2]string]float64
	users map[string]bool
}

func newShadow() *shadowGraph {
	return &shadowGraph{w: map[[2]string]float64{}, users: map[string]bool{}}
}

func (s *shadowGraph) add(u, v string, delta float64) {
	if u == "" || v == "" {
		return
	}
	s.users[u] = true
	s.users[v] = true
	if u == v || delta == 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	s.w[[2]string{u, v}] += delta
}

func (s *shadowGraph) edges() []Edge {
	out := make([]Edge, 0, len(s.w))
	for k, w := range s.w {
		out = append(out, Edge{U: k[0], V: k[1], W: w})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

func requireSameEdges(t *testing.T, want, got []Edge, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestGraphMatchesShadowMap drives random AddEdgeWeight sequences through
// the CSR graph under three compaction policies — never, always, default —
// and checks every variant against the string-keyed oracle: same edge list,
// same pair weights, same counters.
func TestGraphMatchesShadowMap(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			names := make([]string, 20)
			for i := range names {
				names[i] = fmt.Sprintf("u%02d", i)
			}
			type op struct {
				u, v string
				w    float64
			}
			ops := make([]op, 400)
			for i := range ops {
				o := op{u: names[rng.Intn(len(names))], v: names[rng.Intn(len(names))], w: float64(1 + rng.Intn(5))}
				switch rng.Intn(10) {
				case 0:
					o.v = o.u // self loop: users registered, no edge
				case 1:
					o.u = "" // ignored entirely
				}
				ops[i] = o
			}

			shadow := newShadow()
			for _, o := range ops {
				shadow.add(o.u, o.v, o.w)
			}
			want := shadow.edges()

			policies := map[string]func(int, int) bool{
				"never":   neverCompact,
				"always":  alwaysCompact,
				"default": compactTrigger,
			}
			for label, policy := range policies {
				old := compactTrigger
				compactTrigger = policy
				g := NewGraph()
				for _, o := range ops {
					g.AddEdgeWeight(o.u, o.v, o.w)
				}
				compactTrigger = old

				requireSameEdges(t, want, g.Edges(), label)
				if g.NumEdges() != len(want) {
					t.Errorf("%s: NumEdges = %d, want %d", label, g.NumEdges(), len(want))
				}
				if g.NumUsers() != len(shadow.users) {
					t.Errorf("%s: NumUsers = %d, want %d", label, g.NumUsers(), len(shadow.users))
				}
				for k, w := range shadow.w {
					if got := g.Weight(k[0], k[1]); got != w {
						t.Errorf("%s: Weight(%s,%s) = %g, want %g", label, k[0], k[1], got, w)
					}
					if got := g.Weight(k[1], k[0]); got != w {
						t.Errorf("%s: Weight(%s,%s) = %g, want %g (reversed)", label, k[1], k[0], got, w)
					}
				}
				if label == "always" && g.OverlayLen() != 0 {
					t.Errorf("always-compact graph kept %d overlay entries", g.OverlayLen())
				}
			}
		})
	}
}

// passReport is what one maintenance pass reported it changed.
type passReport struct {
	Touched []int
	Entered []string
}

// maintScenario replays a randomized multi-batch maintenance run — new
// users, repeat edges, union-weight bridges — and returns the final
// partition, per-batch stats and each batch's touched and entered sets.
func maintScenario(seed int64) (map[string]int, []Stats, []passReport) {
	rng := rand.New(rand.NewSource(seed))
	audiences := map[string][]string{}
	for v := 0; v < 12; v++ {
		n := 2 + rng.Intn(4)
		users := make([]string, n)
		for i := range users {
			users[i] = fmt.Sprintf("c%d-u%d", v%4, rng.Intn(8)) // 4 clusters of 8
		}
		audiences[fmt.Sprintf("vid%02d", v)] = users
	}
	g := BuildUIG(audiences)
	p := ExtractSubCommunities(g, 4)
	m := NewMaintainer(g, p)

	var stats []Stats
	var reports []passReport
	for batch := 0; batch < 6; batch++ {
		var edges []Edge
		for i := 0; i < 10; i++ {
			u := fmt.Sprintf("c%d-u%d", rng.Intn(4), rng.Intn(8))
			v := fmt.Sprintf("c%d-u%d", rng.Intn(4), rng.Intn(10)) // Intn(10): sometimes new users
			edges = append(edges, Edge{U: u, V: v, W: float64(1 + rng.Intn(3))})
		}
		if batch%2 == 1 {
			// A heavy cross-cluster bridge to force unions (and the splits
			// that restore K).
			edges = append(edges, Edge{
				U: fmt.Sprintf("c%d-u0", rng.Intn(4)),
				V: fmt.Sprintf("c%d-u1", rng.Intn(4)),
				W: p.LightestIntra + 10,
			})
		}
		stats = append(stats, m.ApplyConnections(edges))
		reports = append(reports, passReport{slices.Clone(m.Touched()), slices.Clone(m.Entered())})
	}
	return m.Partition().AssignMap(), stats, reports
}

// TestMaintenanceInvariantUnderCompaction runs the same maintenance scenario
// with compaction forced after every insert and with compaction disabled:
// partitions, per-batch stats and each batch's reported touched and entered
// sets must match.
// Compaction is a pure representation change; any divergence here means the
// overlay and the CSR base disagree about the graph.
func TestMaintenanceInvariantUnderCompaction(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		withCompactTrigger(t, neverCompact)
		assignNever, statsNever, reportsNever := maintScenario(seed)
		withCompactTrigger(t, alwaysCompact)
		assignAlways, statsAlways, reportsAlways := maintScenario(seed)

		if len(assignNever) != len(assignAlways) {
			t.Fatalf("seed %d: assigned %d users vs %d", seed, len(assignNever), len(assignAlways))
		}
		for u, c := range assignNever {
			if assignAlways[u] != c {
				t.Fatalf("seed %d: user %s in community %d vs %d", seed, u, c, assignAlways[u])
			}
		}
		if fmt.Sprint(statsNever) != fmt.Sprint(statsAlways) {
			t.Fatalf("seed %d: stats diverge:\n%v\n%v", seed, statsNever, statsAlways)
		}
		if !reflect.DeepEqual(reportsNever, reportsAlways) {
			t.Fatalf("seed %d: reported sets diverge:\n%+v\n%+v", seed, reportsNever, reportsAlways)
		}
		// Sanity: the scenario must actually exercise unions, splits and
		// first assignments, and each pass reports what it changed.
		unions, splits, entered := 0, 0, 0
		for i, st := range statsNever {
			unions += st.Unions
			splits += st.Splits
			entered += len(reportsNever[i].Entered)
			if len(reportsNever[i].Entered) != st.NewUsersAssigned {
				t.Fatalf("seed %d batch %d: %d users entered, stats count %d", seed, i, len(reportsNever[i].Entered), st.NewUsersAssigned)
			}
			if st.Unions+st.Splits+st.NewUsersAssigned > 0 && len(reportsNever[i].Touched) == 0 {
				t.Fatalf("seed %d batch %d: pass %+v touched no dimension", seed, i, st)
			}
		}
		if unions == 0 || splits == 0 || entered == 0 {
			t.Fatalf("seed %d: scenario exercised %d unions, %d splits, %d first assignments — wants all > 0", seed, unions, splits, entered)
		}
	}
}

// steadyStateFixture builds a maintainer plus a batch that touches only
// existing users with weights at or below the union threshold — the
// steady-state pass that must not allocate.
func steadyStateFixture() (*Maintainer, []Edge) {
	audiences := map[string][]string{}
	for v := 0; v < 8; v++ {
		audiences[fmt.Sprintf("vid%d", v)] = []string{
			fmt.Sprintf("c%d-a", v%2), fmt.Sprintf("c%d-b", v%2), fmt.Sprintf("c%d-c", v%2),
		}
	}
	g := BuildUIG(audiences)
	p := ExtractSubCommunities(g, 2)
	m := NewMaintainer(g, p)
	edges := []Edge{
		{U: "c0-a", V: "c0-b", W: 1},
		{U: "c1-b", V: "c1-c", W: 1},
		{U: "c0-c", V: "c0-a", W: 1},
	}
	return m, edges
}

// TestApplyConnectionsSteadyStateAllocs pins the zero-allocation contract of
// the CSR rewrite: a pass over existing users whose weights stay at or below
// the union threshold patches base weights in place and must not allocate.
func TestApplyConnectionsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, edges := steadyStateFixture()
	m.ApplyConnections(edges) // warm the pooled scratch
	allocs := testing.AllocsPerRun(100, func() {
		m.ApplyConnections(edges)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ApplyConnections allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkSteadyStateApply measures the in-place delta pass.
func BenchmarkSteadyStateApply(b *testing.B) {
	m, edges := steadyStateFixture()
	m.ApplyConnections(edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyConnections(edges)
	}
}

// BenchmarkUnionSplitCycle pins the allocation profile of the pooled split
// path: every iteration a heavy bridge unions the two communities and the
// split pass re-extracts them, exercising splitLightest's scratch buffers.
// Internal edges are far heavier than the accumulating bridge, so the bridge
// stays the lightest intra-community edge and the cycle is periodic.
func BenchmarkUnionSplitCycle(b *testing.B) {
	g := NewGraph()
	assign := map[string]int{}
	for c := 0; c < 2; c++ {
		for i := 0; i < 10; i++ {
			assign[fmt.Sprintf("c%d-u%d", c, i)] = c
			for j := i + 1; j < 10; j++ {
				g.AddEdgeWeight(fmt.Sprintf("c%d-u%d", c, i), fmt.Sprintf("c%d-u%d", c, j), 1e12)
			}
		}
	}
	// A partition with an explicit union threshold of 5: each iteration's
	// weight-6 bridge exceeds it (union), yet the accumulated bridge stays
	// the lightest intra edge by far (split cuts it, restoring the clusters).
	p := NewPartition(g.UserTable(), 2, 2, 5, assign)
	m := NewMaintainer(g, p)
	bridge := []Edge{{U: "c0-u0", V: "c1-u0", W: 6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := m.ApplyConnections(bridge)
		if st.Unions != 1 || st.Splits != 1 {
			b.Fatalf("iteration %d: unions=%d splits=%d, want 1/1", i, st.Unions, st.Splits)
		}
	}
}

// stringSortedEdges is Edges as it was first written: every edge named
// (smaller name first), then sorted by the (U, V) string pair. Edges' rank
// sort must reproduce it exactly.
func stringSortedEdges(g *Graph) []Edge {
	var es []Edge
	g.eachEdgeDense(func(iu, iv uint32, w float64) {
		a, b := g.users.Name(iu), g.users.Name(iv)
		if a > b {
			a, b = b, a
		}
		es = append(es, Edge{U: a, V: b, W: w})
	})
	sort.Slice(es, func(a, b int) bool {
		if es[a].U != es[b].U {
			return es[a].U < es[b].U
		}
		return es[a].V < es[b].V
	})
	return es
}

// TestEdgesRankOrderMatchesStringSort builds graphs whose users are interned
// in an order unrelated to their names — shuffled, with names whose numeric
// and lexical orders disagree ("u10" < "u9") — and holds Edges to the
// string-pair sort.
func TestEdgesRankOrderMatchesStringSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := make([]string, 5+rng.Intn(60))
		for i := range names {
			names[i] = fmt.Sprintf("u%d", i)
		}
		rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		g := NewGraph()
		for _, u := range names {
			g.AddUser(u)
		}
		for i := 0; i < 4*len(names); i++ {
			g.AddEdgeWeight(names[rng.Intn(len(names))], names[rng.Intn(len(names))], float64(1+rng.Intn(3)))
		}
		requireSameEdges(t, stringSortedEdges(g), g.Edges(), fmt.Sprintf("seed %d", seed))
	}
}

// TestGraphFromEdgesMatchesIncremental restores random snapshot graphs both
// ways — AddUser then AddEdgeWeight per edge, and GraphFromEdges in one
// pass — over inputs with duplicate pairs in both orientations, zero and
// fractional weights (so the summation order shows), self-loops, empty
// names and users found only in edges. The one-pass graph must be Equal to
// the incremental one under every compaction policy, list the same edges,
// and hold nothing in its overlay.
func TestGraphFromEdgesMatchesIncremental(t *testing.T) {
	for _, policy := range []struct {
		name    string
		trigger func(int, int) bool
	}{{"default", compactTrigger}, {"never", neverCompact}, {"always", alwaysCompact}} {
		withCompactTrigger(t, policy.trigger)
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := make([]string, 3+rng.Intn(40))
			for i := range pool {
				pool[i] = fmt.Sprintf("p%d", rng.Intn(1000))
			}
			pick := func() string {
				if rng.Intn(25) == 0 {
					return ""
				}
				return pool[rng.Intn(len(pool))]
			}
			var users []string
			for i := rng.Intn(len(pool)); i > 0; i-- {
				users = append(users, pool[rng.Intn(len(pool))])
			}
			edges := make([]Edge, rng.Intn(6*len(pool)))
			for i := range edges {
				e := Edge{U: pick(), V: pick()}
				switch rng.Intn(4) {
				case 0:
					e.W = 0
				case 1:
					e.W = rng.Float64()
				default:
					e.W = float64(1 + rng.Intn(5))
				}
				edges[i] = e
			}
			label := fmt.Sprintf("%s/seed %d", policy.name, seed)
			inc := NewGraph()
			for _, u := range users {
				inc.AddUser(u)
			}
			for _, e := range edges {
				inc.AddEdgeWeight(e.U, e.V, e.W)
			}
			bulk := GraphFromEdges(users, edges)
			if !bulk.Equal(inc) || !inc.Equal(bulk) {
				t.Fatalf("%s: one-pass graph differs from the incremental build", label)
			}
			if bulk.OverlayLen() != 0 {
				t.Fatalf("%s: one-pass graph holds %d overlay entries", label, bulk.OverlayLen())
			}
			requireSameEdges(t, inc.Edges(), bulk.Edges(), label)
		}
	}
}

// TestCSRRoundTrip: CSR lists every edge once in key order, base and overlay
// merged, and GraphFromCSR rebuilds an Equal graph from it; malformed users,
// keys or assignments from a damaged snapshot are errors.
func TestCSRRoundTrip(t *testing.T) {
	withCompactTrigger(t, neverCompact) // keep post-build edges in the overlay
	g := BuildUIG(map[string][]string{"v1": {"a", "b", "c"}, "v2": {"b", "c", "d"}, "v3": {"e"}})
	g.AddEdgeWeight("a", "d", 2)
	g.AddEdgeWeight("new", "b", 1)
	if g.OverlayLen() == 0 {
		t.Fatal("no overlay edges to merge")
	}
	keys, w := g.CSR()
	if len(keys) != g.NumEdges() || !slices.IsSorted(keys) {
		t.Fatalf("CSR keys %x: not %d ascending edges", keys, g.NumEdges())
	}
	back, err := GraphFromCSR(g.Users(), keys, w)
	if err != nil || !back.Equal(g) || !g.Equal(back) || back.OverlayLen() != 0 {
		t.Fatalf("GraphFromCSR(CSR()) differs from the graph: %v", err)
	}
	users := g.Users()
	for name, bad := range map[string]func() error{
		"repeated user":   func() error { _, err := GraphFromCSR([]string{"a", "a"}, nil, nil); return err },
		"empty user":      func() error { _, err := GraphFromCSR([]string{"a", ""}, nil, nil); return err },
		"self-loop":       func() error { _, err := GraphFromCSR(users, []uint64{1<<32 | 1}, []float64{1}); return err },
		"reversed pair":   func() error { _, err := GraphFromCSR(users, []uint64{2<<32 | 1}, []float64{1}); return err },
		"unknown user":    func() error { _, err := GraphFromCSR(users, []uint64{uint64(len(users))}, []float64{1}); return err },
		"keys descending": func() error { _, err := GraphFromCSR(users, []uint64{2, 1}, []float64{1, 1}); return err },
		"weights short":   func() error { _, err := GraphFromCSR(users, []uint64{1, 2}, []float64{1}); return err },
		"assignment below -1": func() error {
			_, err := RestorePartition(back.UserTable(), 2, 2, 1, []int32{0, -2})
			return err
		},
		"assignment at dim": func() error { _, err := RestorePartition(back.UserTable(), 2, 2, 1, []int32{0, 2}); return err },
		"assignment too long": func() error {
			_, err := RestorePartition(back.UserTable(), 2, 2, 1, make([]int32, len(users)+1))
			return err
		},
	} {
		if bad() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
