package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"videorec/internal/community"
	"videorec/internal/emd"
	"videorec/internal/hashing"
	"videorec/internal/oracle"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// AblationRow is one design-choice measurement: the production choice vs
// its alternative, with the correctness relationship between them.
type AblationRow struct {
	Name        string
	Production  string
	Alternative string
	Speedup     float64 // alternative time / production time
	Note        string
}

// String renders the row for cmd/experiments.
func (r AblationRow) String() string {
	return fmt.Sprintf("%-22s %s vs %s: %.1fx  (%s)", r.Name, r.Production, r.Alternative, r.Speedup, r.Note)
}

// Ablations measures the DESIGN.md §6 design choices programmatically (the
// bench harness measures the same things under testing.B; this variant
// feeds cmd/experiments).
func (e *Env) Ablations() []AblationRow {
	var rows []AblationRow

	// 1. Closed-form 1-D EMD vs transportation simplex.
	{
		rng := rand.New(rand.NewSource(7))
		n := 24
		v1, w1 := randHistogram(rng, n)
		v2, w2 := randHistogram(rng, n)
		cost := emd.GroundL1Cost(v1, v2)
		fast := timeIt(400, func() { _, _ = emd.Distance1D(v1, w1, v2, w2) })
		slow := timeIt(20, func() { _, _, _ = emd.Solve(cost, w1, w2) })
		rows = append(rows, AblationRow{
			Name: "emd-solver", Production: "closed-form-1d", Alternative: "simplex",
			Speedup: slow / fast, Note: "property-tested equal",
		})
	}

	// 2. Kruskal dual vs literal Figure 3 removal.
	{
		rng := rand.New(rand.NewSource(3))
		g := community.NewGraph()
		for i := 0; i < 200; i++ {
			for j := 0; j < 5; j++ {
				g.AddEdgeWeight(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", rng.Intn(200)), float64(1+rng.Intn(9)))
			}
		}
		fast := timeIt(20, func() { community.ExtractSubCommunities(g, 40) })
		slow := timeIt(3, func() { community.ExtractLiteral(g, 40) })
		rows = append(rows, AblationRow{
			Name: "partition", Production: "kruskal-dual", Alternative: "literal-removal",
			Speedup: slow / fast, Note: "identical partitions (property-tested)",
		})
	}

	// 3. κJ centroid lower-bound filter vs unfiltered (measured through the
	// public KJ on unrelated series, where the filter prunes most pairs).
	{
		s1 := e.Series[e.Sources()[0]]
		var s2 signature.Series
		srcTheme := theme(e.Col.ByID[e.Sources()[0]].Topic)
		for _, it := range e.Col.Items {
			if theme(it.Topic) != srcTheme {
				s2 = e.Series[it.ID]
				break
			}
		}
		filtered := timeIt(100, func() { signature.KJ(s1, s2, signature.DefaultMatchThreshold) })
		unfiltered := timeIt(100, func() { signature.KJ(s1, s2, 0) }) // threshold 0 disables the filter
		rows = append(rows, AblationRow{
			Name: "kj-lb-filter", Production: "filtered", Alternative: "unfiltered",
			Speedup: unfiltered / filtered, Note: "exact pruning, identical matches",
		})
	}

	// 4. Social estimators: exact sJ vs SAR vector vs MinHash sketch.
	{
		users := e.Col.Users
		half := len(users) / 2
		d1 := social.NewDescriptor("", users[:half+half/2]...)
		d2 := social.NewDescriptor("", users[half/2:]...)
		m := social.NewMinHasher(64, 1)
		sk1, sk2 := m.Sketch(d1), m.Sketch(d2)
		o := e.socialOracle(e.optimalK())
		va := o.Vectorize(e.Descs[e.Sources()[0]], oracle.SAR)
		vb := o.Vectorize(e.Descs[e.Sources()[1]], oracle.SAR)
		exact := timeIt(400, func() { social.Jaccard(d1, d2) })
		sar := timeIt(400, func() { social.ApproxJaccard(va, vb) })
		mh := timeIt(400, func() { social.EstimateJaccard(sk1, sk2) })
		rows = append(rows, AblationRow{
			Name: "social-estimator", Production: "sar-vector", Alternative: "exact-sJ",
			Speedup: exact / sar, Note: fmt.Sprintf("minhash-64 is %.1fx vs exact; SAR also feeds the inverted files", exact/mh),
		})
	}

	// 5. Chained shift-add-xor table vs linear dictionary scan.
	{
		tb := hashing.NewTable(1<<12, 17)
		dict := make([]string, 0, len(e.Col.Users))
		for i, u := range e.Col.Users {
			tb.Insert(u, i%60)
			dict = append(dict, u)
		}
		probe := e.Col.Users[len(e.Col.Users)-1]
		hashed := timeIt(2000, func() { tb.Lookup(probe) })
		linear := timeIt(2000, func() {
			for _, u := range dict {
				if u == probe {
					break
				}
			}
		})
		rows = append(rows, AblationRow{
			Name: "user-dictionary", Production: "chained-hash", Alternative: "linear-scan",
			Speedup: linear / hashed, Note: "the CSF-SAR-H vs CSF-SAR gap of Fig. 12(a)",
		})
	}
	return rows
}

func timeIt(iters int, f func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func randHistogram(rng *rand.Rand, n int) (v, w []float64) {
	v = make([]float64, n)
	w = make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
		w[i] = 1
	}
	if err := emd.Normalize(w); err != nil {
		panic(err)
	}
	return v, w
}
