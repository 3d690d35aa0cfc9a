// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) over the synthetic sharing community: the Table 2 queries,
// the §4.2.2 Silhouette comparison, the effectiveness figures 7–11 and the
// efficiency figure 12. Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"

	"videorec/internal/baselines"
	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/metrics"
	"videorec/internal/oracle"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// Scale fixes the dataset sizes experiments run at. The paper's testbed
// crawled 200 hours of video; DefaultScale shrinks the collection so the
// whole suite runs in seconds while preserving every comparative shape, and
// PaperScale restores the 50–200 hour sweep.
type Scale struct {
	EffectivenessHours float64   // collection size for Figures 7–11
	EfficiencyHours    []float64 // Figure 12 sweep points
	Users              int
	CommentMean        float64 // descriptor sizes drive the exact-sJ cost
	OptimalK           int     // the tuned sub-community count (paper: 60)
	KSweep             []int   // Figure 9 sweep (paper: 20–80)
	Seed               int64
	PanelSeed          int64
}

// DefaultScale runs the suite at roughly 1/8 of the paper's scale. The
// community is sized so the paper's k values are meaningful: k of Figure 3
// must exceed the natural component count of the UIG but stay below the
// point where it only peels singletons, and that window moves with the
// number of recurring users.
func DefaultScale() Scale {
	return Scale{
		EffectivenessHours: 16,
		EfficiencyHours:    []float64{6.25, 12.5, 18.75, 25},
		Users:              250,
		CommentMean:        25,
		OptimalK:           60,
		KSweep:             []int{20, 40, 60, 80},
		Seed:               1,
		PanelSeed:          42,
	}
}

// PaperScale reproduces the paper's 50–200 hour sweep (slow: tens of
// minutes of synthesis and search). The k values scale with the community
// (see DefaultScale): 16x more users moves the useful k window accordingly.
func PaperScale() Scale {
	return Scale{
		EffectivenessHours: 200,
		EfficiencyHours:    []float64{50, 100, 150, 200},
		Users:              4000,
		CommentMean:        120,
		OptimalK:           960,
		KSweep:             []int{320, 640, 960, 1280},
		Seed:               1,
		PanelSeed:          42,
	}
}

// TopKs are the recommendation depths every effectiveness figure reports.
var TopKs = []int{5, 10, 20}

// Env holds the artifacts shared by all experiments at one scale: the
// generated collection, extracted signature series, source-period social
// descriptors, the rater panel, and the AFFRF baseline's features.
type Env struct {
	Scale Scale
	Col   *dataset.Collection
	Panel *metrics.Panel

	Series map[string]signature.Series
	Descs  map[string]social.Descriptor
	AFFRF  *baselines.AFFRF

	// contentCache holds each source's κJ row in the oracle's id order,
	// which every oracle over the collection's clips shares.
	contentCache map[string][]float64
}

// NewEnv generates the effectiveness collection and extracts every feature
// once. Frames are rendered per video and dropped immediately.
func NewEnv(s Scale) *Env {
	o := dataset.DefaultOptions()
	o.Hours = s.EffectivenessHours
	o.Users = s.Users
	o.CommentMean = s.CommentMean
	o.Seed = s.Seed
	col := dataset.Generate(o)
	e := &Env{
		Scale:        s,
		Col:          col,
		Panel:        metrics.NewPanel(10, s.PanelSeed),
		Series:       make(map[string]signature.Series, len(col.Items)),
		Descs:        make(map[string]social.Descriptor, len(col.Items)),
		AFFRF:        baselines.NewAFFRF(baselines.DefaultAFFRFOptions()),
		contentCache: map[string][]float64{},
	}
	sigOpts := signature.DefaultOptions()
	for i, it := range col.Items {
		v := it.Render(o.Synth)
		e.Series[it.ID] = signature.Extract(v, sigOpts)
		e.AFFRF.Ingest(it.ID, it.Topic, v, int64(i+1))
		v.ReleaseFrames()
		e.Descs[it.ID] = SourceDescriptor(col, it)
	}
	return e
}

// SourceDescriptor builds a video's social descriptor from its owner and its
// source-period comments (months before MonthsSource).
func SourceDescriptor(col *dataset.Collection, it *dataset.Item) social.Descriptor {
	var users []string
	for _, cm := range it.Comments {
		if cm.Month < col.Opts.MonthsSource {
			users = append(users, cm.User)
		}
	}
	return social.NewDescriptor(it.Owner, users...)
}

// Sources returns the 10 source videos (top-2 per Table 2 query).
func (e *Env) Sources() []string {
	var out []string
	for _, q := range e.Col.Queries {
		out = append(out, q.Sources...)
	}
	return out
}

// oracleOf is the oracle over a recommender's records and partition.
func oracleOf(r *core.Recommender) *oracle.Oracle {
	var recs []oracle.Record
	for _, id := range r.SortedIDs() {
		rec, _ := r.Record(id)
		recs = append(recs, oracle.Record{ID: id, Compiled: rec.Compiled, Desc: rec.Desc})
	}
	return oracle.New(recs, r.Partition(), r.Options().MatchThreshold)
}

// content returns a source's κJ row from o, an oracle over the collection's
// clips, computing it once per source.
func (e *Env) content(o *oracle.Oracle, src string) []float64 {
	if c, ok := e.contentCache[src]; ok {
		return c
	}
	q, _ := o.Query(src)
	c := o.Content(q)
	e.contentCache[src] = c
	return c
}

// BuildRecommender ingests a collection's pre-extracted features into a
// fresh core recommender and builds its social machinery.
func (e *Env) BuildRecommender(opts core.Options, col *dataset.Collection) *core.Recommender {
	r := core.NewRecommender(opts)
	for _, it := range col.Items {
		r.IngestSeries(it.ID, e.Series[it.ID], SourceDescriptor(col, it))
	}
	r.BuildSocial()
	return r
}

// Row is one effectiveness measurement: a method (or parameter value) at
// one recommendation depth.
type Row struct {
	Label string
	TopK  int
	AR    float64
	AC    float64
	MAP   float64
}

// String renders the row the way cmd/experiments prints figures.
func (r Row) String() string {
	return fmt.Sprintf("%-12s top%-3d AR=%.3f AC=%.3f MAP=%.3f", r.Label, r.TopK, r.AR, r.AC, r.MAP)
}

// Ranker produces a ranked recommendation list for a source video.
type Ranker func(src string, topK int) []string

// Evaluate runs a ranker over all 10 sources at every TopK and aggregates
// AR, AC and MAP with the simulated panel (§5.2's protocol: each evaluator
// rates each recommended video 1–5 against the source).
func (e *Env) Evaluate(label string, rank Ranker) []Row {
	rows := make([]Row, 0, len(TopKs))
	for _, k := range TopKs {
		var arSum, acSum float64
		var aps []float64
		srcs := e.Sources()
		for _, src := range srcs {
			ids := rank(src, k)
			ratings := make([]float64, len(ids))
			for i, id := range ids {
				rel := e.Col.Relevance(src, id)
				ratings[i] = e.Panel.Rate(src+"|"+id, rel)
			}
			arSum += metrics.AR(ratings)
			acSum += metrics.AC(ratings)
			aps = append(aps, metrics.APFromRatings(ratings))
		}
		n := float64(len(srcs))
		rows = append(rows, Row{
			Label: label,
			TopK:  k,
			AR:    arSum / n,
			AC:    acSum / n,
			MAP:   metrics.MAP(aps),
		})
	}
	return rows
}
