// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus ablations of the design choices listed in DESIGN.md §4. Each
// FigXX benchmark runs the corresponding experiment end to end and reports
// its headline quantity via b.ReportMetric; cmd/experiments prints the full
// row sets.
package videorec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"videorec/internal/btree"
	"videorec/internal/community"
	"videorec/internal/core"
	"videorec/internal/emd"
	"videorec/internal/experiments"
	"videorec/internal/hashing"
	"videorec/internal/index"
	"videorec/internal/oracle"
	"videorec/internal/signature"
	"videorec/internal/social"
	vid "videorec/internal/video"
)

var (
	effOnce  sync.Once
	effEnv   *experiments.Env
	timeOnce sync.Once
	timeEnv  *experiments.EfficiencyEnv
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	effOnce.Do(func() { effEnv = experiments.NewEnv(experiments.DefaultScale()) })
	return effEnv
}

func benchTimeEnv(b *testing.B) *experiments.EfficiencyEnv {
	b.Helper()
	timeOnce.Do(func() { timeEnv = experiments.NewEfficiencyEnv(experiments.DefaultScale()) })
	return timeEnv
}

// BenchmarkTable2Queries regenerates Table 2: the five queries with their
// top-2 source videos.
func BenchmarkTable2Queries(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		qs := e.Table2()
		if len(qs) != 5 {
			b.Fatalf("got %d queries", len(qs))
		}
	}
}

// BenchmarkSilhouette regenerates the §4.2.2 in-text comparison: Silhouette
// Coefficient of our sub-community extraction vs spectral clustering
// (paper: 0.498 vs 0.242).
func BenchmarkSilhouette(b *testing.B) {
	e := benchEnv(b)
	var ours, spec float64
	for i := 0; i < b.N; i++ {
		ours, spec = e.Silhouette(200, 60)
	}
	b.ReportMetric(ours, "silhouette-ours")
	b.ReportMetric(spec, "silhouette-spectral")
}

// BenchmarkFig7ContentMeasures regenerates Figure 7: ERP vs DTW vs κJ.
func BenchmarkFig7ContentMeasures(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = e.Fig7()
	}
	reportAR(b, rows, "kJ", "ERP", "DTW")
}

// BenchmarkFig8OmegaSweep regenerates Figure 8: the ω sweep (paper peak at
// 0.7).
func BenchmarkFig8OmegaSweep(b *testing.B) {
	e := benchEnv(b)
	omegas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = e.Fig8(omegas)
	}
	reportAR(b, rows, "w=0.0", "w=0.7", "w=1.0")
}

// BenchmarkFig9KSweep regenerates Figure 9: the sub-community count sweep.
func BenchmarkFig9KSweep(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = e.Fig9(e.Scale.KSweep)
	}
	labels := make([]string, len(e.Scale.KSweep))
	for i, k := range e.Scale.KSweep {
		labels[i] = fmt.Sprintf("k=%d", k)
	}
	reportAR(b, rows, labels...)
}

// BenchmarkFig10Approaches regenerates Figure 10: SR vs CSF vs CR vs AFFRF.
func BenchmarkFig10Approaches(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = e.Fig10()
	}
	reportAR(b, rows, "CSF", "SR", "CR", "AFFRF")
}

// BenchmarkFig11UpdateEffect regenerates Figure 11: effectiveness stability
// while replaying 1–4 months of social updates.
func BenchmarkFig11UpdateEffect(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = e.Fig11()
	}
	reportAR(b, rows, "0mo", "4mo")
}

// BenchmarkFig12aSAR regenerates Figure 12(a): CSF vs CSF-SAR vs CSF-SAR-H
// recommendation time over the collection-size sweep.
func BenchmarkFig12aSAR(b *testing.B) {
	e := benchTimeEnv(b)
	var rows []experiments.TimeRow
	for i := 0; i < b.N; i++ {
		rows = e.Fig12a()
	}
	reportTime(b, rows)
}

// BenchmarkFig12bVsCR regenerates Figure 12(b): CSF-SAR-H vs the
// content-only CR baseline.
func BenchmarkFig12bVsCR(b *testing.B) {
	e := benchTimeEnv(b)
	var rows []experiments.TimeRow
	for i := 0; i < b.N; i++ {
		rows = e.Fig12b()
	}
	reportTime(b, rows)
}

// BenchmarkFig12cUpdateCost regenerates Figure 12(c): maintenance cost for
// 1–4 months of social updates.
func BenchmarkFig12cUpdateCost(b *testing.B) {
	e := benchTimeEnv(b)
	var rows []experiments.UpdateRow
	for i := 0; i < b.N; i++ {
		rows = e.Fig12c()
	}
	for _, r := range rows {
		b.ReportMetric(r.Millis, fmt.Sprintf("ms-%dmo", r.Months))
	}
}

func reportAR(b *testing.B, rows []experiments.Row, labels ...string) {
	for _, r := range rows {
		for _, l := range labels {
			if r.Label == l && r.TopK == 10 {
				b.ReportMetric(r.AR, "AR10-"+l)
			}
		}
	}
}

func reportTime(b *testing.B, rows []experiments.TimeRow) {
	for _, r := range rows {
		b.ReportMetric(r.MillisPerQuery, fmt.Sprintf("ms-%s-%.0fh", r.Label, r.Hours))
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationEMD1DvsSimplex: the closed-form 1-D EMD fast path vs the
// general transportation simplex on identical inputs.
func BenchmarkAblationEMD1DvsSimplex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 24
	v1 := make([]float64, n)
	w1 := make([]float64, n)
	v2 := make([]float64, n)
	w2 := make([]float64, n)
	for i := 0; i < n; i++ {
		v1[i], v2[i] = rng.Float64(), rng.Float64()
		w1[i], w2[i] = 1, 1
	}
	if err := emd.Normalize(w1); err != nil {
		b.Fatal(err)
	}
	if err := emd.Normalize(w2); err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form-1d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := emd.Distance1D(v1, w1, v2, w2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transportation-simplex", func(b *testing.B) {
		cost := emd.GroundL1Cost(v1, v2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := emd.Solve(cost, w1, w2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPartition: the descending-Kruskal dual vs the literal
// Figure 3 removal loop (identical outputs, property-tested).
func BenchmarkAblationPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := community.NewGraph()
	for i := 0; i < 300; i++ {
		for j := 0; j < 6; j++ {
			u := fmt.Sprintf("u%d", i)
			v := fmt.Sprintf("u%d", rng.Intn(300))
			g.AddEdgeWeight(u, v, float64(1+rng.Intn(9)))
		}
	}
	b.Run("kruskal-dual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			community.ExtractSubCommunities(g, 40)
		}
	})
	b.Run("literal-removal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			community.ExtractLiteral(g, 40)
		}
	})
}

// BenchmarkAblationHashTable: the paper's chained shift-add-xor table vs the
// built-in map for user → sub-community lookups.
func BenchmarkAblationHashTable(b *testing.B) {
	const n = 20000
	keys := make([]string, n)
	tb := hashing.NewTable(1<<12, 17)
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("user%05d", i)
		tb.Insert(keys[i], i%60)
		m[keys[i]] = i % 60
	}
	b.Run("chained-shift-add-xor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.Lookup(keys[i%n])
		}
	})
	b.Run("go-map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m[keys[i%n]]
		}
	})
}

// BenchmarkAblationLSBvsScan: LSB-index probed recommendation vs the
// oracle's exhaustive scan over the same records, partition and query.
func BenchmarkAblationLSBvsScan(b *testing.B) {
	e := benchEnv(b)
	opts := core.DefaultOptions()
	opts.CandidateLimit = 80
	opts.ContentProbe = 128
	r := e.BuildRecommender(opts, e.Col)
	src := e.Sources()[0]
	b.Run("lsb-probed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.RecommendID(src, 10)
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		var recs []oracle.Record
		for _, id := range r.SortedIDs() {
			rec, _ := r.Record(id)
			recs = append(recs, oracle.Record{ID: id, Compiled: rec.Compiled, Desc: rec.Desc})
		}
		o := oracle.New(recs, r.Partition(), opts.MatchThreshold)
		q, _ := o.Query(src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Rank(q, opts.Omega, oracle.SAR, 10, src)
		}
	})
}

// BenchmarkAblationSARAccuracy: how closely s̃J tracks the exact sJ on real
// descriptor pairs, and their relative cost. Accuracy is reported as the
// mean absolute deviation over the sampled pairs.
func BenchmarkAblationSARAccuracy(b *testing.B) {
	e := benchEnv(b)
	opts := core.DefaultOptions()
	r := e.BuildRecommender(opts, e.Col)
	ids := make([]string, 0, len(e.Col.Items))
	for _, it := range e.Col.Items {
		ids = append(ids, it.ID)
	}
	var dev float64
	pairs := 0
	for i := 0; i < 50 && i < len(ids); i++ {
		ra, _ := r.Record(ids[i])
		for j := i + 1; j < i+10 && j < len(ids); j++ {
			rb, _ := r.Record(ids[j])
			exact := social.Jaccard(ra.Desc, rb.Desc)
			approx := social.ApproxJaccard(ra.Vec, rb.Vec)
			if exact > approx {
				dev += exact - approx
			} else {
				dev += approx - exact
			}
			pairs++
		}
	}
	ra, _ := r.Record(ids[0])
	rb, _ := r.Record(ids[1])
	b.Run("exact-sJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			social.Jaccard(ra.Desc, rb.Desc)
		}
	})
	b.Run("sar-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			social.ApproxJaccard(ra.Vec, rb.Vec)
		}
	})
	b.ReportMetric(dev/float64(pairs), "mean-abs-deviation")
}

// BenchmarkEndToEndIngest measures the full ingest pipeline: synthesis,
// shot detection, signature extraction and indexing of one clip.
func BenchmarkEndToEndIngest(b *testing.B) {
	opts := core.DefaultOptions()
	r := core.NewRecommender(opts)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vid.Synthesize(fmt.Sprintf("v%d", i), i%8, vid.DefaultSynthOptions(), rng)
		r.IngestVideo(v.ID, v, social.NewDescriptor("owner", "a", "b"))
	}
}

// BenchmarkSignatureExtraction isolates the content pipeline of §4.1.
func BenchmarkSignatureExtraction(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	v := vid.Synthesize("x", 3, vid.DefaultSynthOptions(), rng)
	o := signature.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.Extract(v, o)
	}
}

// BenchmarkBTreeLCPWalk isolates the LSB-tree's longest-common-prefix
// neighbour iteration.
func BenchmarkBTreeLCPWalk(b *testing.B) {
	tr := btree.New[int](64)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		tr.Insert(rng.Uint64(), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tr.SeekAt(rng.Uint64())
		for j := 0; j < 32 && it.Valid(); j++ {
			it.Next()
		}
	}
}

// BenchmarkRefineSerialVsParallel: step-3 refinement with the worker pool
// off (RefineWorkers=1) vs on (0 = GOMAXPROCS). Unbounded budgets maximize
// the candidate set so the κJ EMD work dominates. Rankings are bit-identical
// either way — this measures latency only.
func BenchmarkRefineSerialVsParallel(b *testing.B) {
	e := benchEnv(b)
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.CandidateLimit, opts.ContentProbe = 1<<30, 1<<30
			opts.RefineWorkers = cfg.workers
			r := e.BuildRecommender(opts, e.Col)
			src := e.Sources()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RecommendID(src, 10)
			}
		})
	}
}

// BenchmarkAblationLSBForest: probe cost of the LSB forest at different
// sizes (1 tree = [28]'s single-curve degradation risk; more trees = better
// recall at proportional walk cost).
func BenchmarkAblationLSBForest(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	var seriesSet []signature.Series
	for i := 0; i < 24; i++ {
		v := vid.Synthesize(fmt.Sprintf("f%d", i), i%8, vid.DefaultSynthOptions(), rng)
		seriesSet = append(seriesSet, signature.Extract(v, signature.DefaultOptions()))
	}
	for _, trees := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("trees-%d", trees), func(b *testing.B) {
			o := index.DefaultLSBOptions()
			o.Trees = trees
			ix := index.NewLSB(o)
			for i, s := range seriesSet {
				ix.Add(uint32(i), s)
			}
			q := seriesSet[3]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := ix.NewWalker(q)
				for probe := 0; probe < 64; probe++ {
					if _, _, ok := w.Next(); !ok {
						break
					}
				}
			}
		})
	}
}
