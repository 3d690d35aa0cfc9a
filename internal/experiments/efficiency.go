package experiments

import (
	"fmt"
	"slices"
	"time"

	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/oracle"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// EfficiencyEnv is the artifact set for the Figure 12 timing experiments.
// The collection is generated once at the largest sweep size with heavier
// comment traffic (exact sJ's quadratic cost needs the paper's
// hundreds-of-commenters descriptors to show), then sliced down.
type EfficiencyEnv struct {
	Scale  Scale
	Col    *dataset.Collection
	Series map[string]signature.Series
}

// NewEfficiencyEnv generates and extracts the timing collection.
func NewEfficiencyEnv(s Scale) *EfficiencyEnv {
	o := dataset.DefaultOptions()
	o.Hours = s.EfficiencyHours[len(s.EfficiencyHours)-1]
	// Timing runs want the paper's fat descriptors ("several hundreds to
	// tens thousands" of commenters): the quadratic exact-sJ cost CSF pays
	// per candidate has to be visible against the content side.
	o.Users = s.Users * 4
	o.CommentMean = s.CommentMean * 8
	o.Seed = s.Seed + 1
	col := dataset.Generate(o)
	e := &EfficiencyEnv{Scale: s, Col: col, Series: make(map[string]signature.Series, len(col.Items))}
	sigOpts := signature.DefaultOptions()
	for _, it := range col.Items {
		v := it.Render(o.Synth)
		e.Series[it.ID] = signature.Extract(v, sigOpts)
		v.ReleaseFrames()
	}
	return e
}

// TimeRow is one timing measurement: an approach at one collection size.
type TimeRow struct {
	Label          string
	Hours          float64
	MillisPerQuery float64
}

// String renders the row the way cmd/experiments prints Figure 12.
func (r TimeRow) String() string {
	return fmt.Sprintf("%-10s %6.1fh  %8.2f ms/query", r.Label, r.Hours, r.MillisPerQuery)
}

// build ingests a slice of the timing collection into a recommender.
func (e *EfficiencyEnv) build(opts core.Options, col *dataset.Collection) *core.Recommender {
	r := core.NewRecommender(opts)
	for _, it := range col.Items {
		r.IngestSeries(it.ID, e.Series[it.ID], SourceDescriptor(col, it))
	}
	r.BuildSocial()
	return r
}

// timedPasses is how many passes over the source videos millisPerQuery
// times; the median of five ignores the two most disturbed.
const timedPasses = 5

// minPassTime is the least wall time one timed pass lasts: a pass repeats
// the source queries until it has run this long. Ten sub-millisecond
// queries take about 3 ms, short enough that one GC cycle or scheduler
// slice inside the median pass moved a row by half between runs.
const minPassTime = 25 * time.Millisecond

// millisPerQuery is the wall-clock time per query of run over the
// collection's 10 source videos: the median over timedPasses passes of each
// pass's mean, a pass repeating the sources until minPassTime has passed.
func millisPerQuery(col *dataset.Collection, run func(src string)) float64 {
	var srcs []string
	for _, q := range col.Queries {
		srcs = append(srcs, q.Sources...)
	}
	if len(srcs) == 0 {
		return 0
	}
	passes := make([]float64, timedPasses)
	for p := range passes {
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < minPassTime {
			for _, src := range srcs {
				run(src)
			}
			n += len(srcs)
		}
		passes[p] = float64(time.Since(start).Nanoseconds()) / 1e6 / float64(n)
	}
	slices.Sort(passes)
	return passes[timedPasses/2]
}

// tunedOptions returns the tuned engine options for the efficiency runs. The
// probe budgets are set low enough to bind at every sweep size: the whole
// point of the SAR candidate pruning is that the refinement set stops
// growing with the collection, which is what separates the CSF-SAR curves
// from the full-scan CSF in Figure 12(a).
func tunedOptions() core.Options {
	opts := core.DefaultOptions()
	opts.CandidateLimit = 120
	opts.ContentProbe = 256
	return opts
}

// Fig12a times the three social-relevance variants over the collection-size
// sweep (Figure 12 a). CSF-SAR-H is the engine. CSF is the oracle's
// exhaustive exact-sJ ranking. CSF-SAR is the engine plus the one thing its
// dictionary changes on the query path: the measured per-query difference
// between vectorizing the query's descriptor by a linear dictionary scan
// (the oracle's) and by the engine's own lookup, the partition's hash map.
func (e *EfficiencyEnv) Fig12a() []TimeRow {
	var csf, sar, sarh []TimeRow
	for _, h := range e.Scale.EfficiencyHours {
		col := e.Col.SliceHours(h)
		opts := tunedOptions()
		r := e.build(opts, col)
		engine := millisPerQuery(col, func(src string) { r.RecommendID(src, 20) })

		o, part := oracleOf(r), r.Partition()
		exact := millisPerQuery(col, func(src string) {
			q, _ := o.Query(src)
			o.Rank(q, opts.Omega, oracle.Exact, 20, src)
		})

		desc := func(src string) social.Descriptor { rec, _ := r.Record(src); return rec.Desc }
		dict := millisPerQuery(col, func(src string) { o.Vectorize(desc(src), oracle.SARDictionary) })
		hashed := millisPerQuery(col, func(src string) { social.Vectorize(desc(src), part.Lookup, part.Dim) })

		csf = append(csf, TimeRow{Label: "CSF", Hours: h, MillisPerQuery: exact})
		sar = append(sar, TimeRow{Label: "CSF-SAR", Hours: h, MillisPerQuery: engine + dict - hashed})
		sarh = append(sarh, TimeRow{Label: "CSF-SAR-H", Hours: h, MillisPerQuery: engine})
	}
	return append(append(csf, sar...), sarh...)
}

// Fig12b times CSF-SAR-H against the content-only CR baseline [35]
// (Figure 12 b). CR is the engine at ω = 0 queried with an empty social
// descriptor, so its candidates come from the LSB-tree alone.
func (e *EfficiencyEnv) Fig12b() []TimeRow {
	var rows []TimeRow
	for _, h := range e.Scale.EfficiencyHours {
		col := e.Col.SliceHours(h)
		r := e.build(tunedOptions(), col)
		rows = append(rows, TimeRow{
			Label: "CSF-SAR-H", Hours: h,
			MillisPerQuery: millisPerQuery(col, func(src string) { r.RecommendID(src, 20) }),
		})
		crOpts := tunedOptions()
		crOpts.Omega = 0
		cr := e.build(crOpts, col)
		rows = append(rows, TimeRow{
			Label: "CR", Hours: h,
			MillisPerQuery: millisPerQuery(col, func(src string) {
				q, _ := cr.QueryFor(src)
				q.Desc = social.Descriptor{}
				cr.Recommend(q, 20, src)
			}),
		})
	}
	return rows
}

// UpdateRow is one social-update maintenance measurement (Figure 12 c).
type UpdateRow struct {
	Months int
	Millis float64
	Report core.UpdateReport
}

// String renders the row the way cmd/experiments prints Figure 12 (c).
func (r UpdateRow) String() string {
	return fmt.Sprintf("%d month(s)  %8.2f ms  (unions=%d splits=%d revectorized=%d)",
		r.Months, r.Millis,
		r.Report.Maintenance.Unions, r.Report.Maintenance.Splits, r.Report.VideosRevectorized)
}

// Fig12c measures the Figure 5 maintenance cost when replaying 1–4 months
// of test-period comments onto a recommender built on the source period.
func (e *EfficiencyEnv) Fig12c() []UpdateRow {
	months := e.Col.Opts.MonthsSource
	var rows []UpdateRow
	for m := 1; m <= e.Col.Opts.MonthsTest; m++ {
		r := e.build(tunedOptions(), e.Col)
		batch := map[string][]string{}
		for _, it := range e.Col.Items {
			for _, cm := range it.Comments {
				if cm.Month >= months && cm.Month < months+m {
					batch[it.ID] = append(batch[it.ID], cm.User)
				}
			}
		}
		start := time.Now()
		rep := r.ApplyUpdates(batch)
		rows = append(rows, UpdateRow{
			Months: m,
			Millis: float64(time.Since(start).Microseconds()) / 1000.0,
			Report: rep,
		})
	}
	return rows
}
