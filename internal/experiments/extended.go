package experiments

import (
	"fmt"

	"videorec/internal/metrics"
)

// ExtRow is one extended-metrics measurement: modern ranking measures the
// paper does not report, computed over the same rankers as Figure 10. An
// extension of the evaluation, recorded separately in EXPERIMENTS.md.
type ExtRow struct {
	Label string
	TopK  int
	NDCG  float64
	P     float64 // precision@K
	R     float64 // recall@K
	MRR   float64
}

// String renders the row for cmd/experiments.
func (r ExtRow) String() string {
	return fmt.Sprintf("%-12s top%-3d NDCG=%.3f P=%.3f R=%.3f MRR=%.3f",
		r.Label, r.TopK, r.NDCG, r.P, r.R, r.MRR)
}

// relevantTo reports ground-truth binary relevance for the extended
// metrics: same topic or shared footage.
func (e *Env) relevantTo(src, id string) bool {
	return e.Col.Relevance(src, id) >= 0.8
}

// totalRelevant counts the corpus-wide relevant items for a source.
func (e *Env) totalRelevant(src string) int {
	n := 0
	for _, it := range e.Col.Items {
		if it.ID != src && e.relevantTo(src, it.ID) {
			n++
		}
	}
	return n
}

// EvaluateExtended runs a ranker over the 10 sources and aggregates NDCG,
// precision, recall and MRR at each TopK.
func (e *Env) EvaluateExtended(label string, rank Ranker) []ExtRow {
	rows := make([]ExtRow, 0, len(TopKs))
	for _, k := range TopKs {
		var ndcgSum, pSum, rSum float64
		var perQueryRel [][]bool
		srcs := e.Sources()
		for _, src := range srcs {
			ids := rank(src, k)
			gains := make([]float64, len(ids))
			rel := make([]bool, len(ids))
			for i, id := range ids {
				gains[i] = e.Panel.Rate(src+"|"+id, e.Col.Relevance(src, id))
				rel[i] = e.relevantTo(src, id)
			}
			ndcgSum += metrics.NDCG(gains)
			pSum += metrics.PrecisionAtK(rel, k)
			rSum += metrics.RecallAtK(rel, k, e.totalRelevant(src))
			perQueryRel = append(perQueryRel, rel)
		}
		n := float64(len(srcs))
		rows = append(rows, ExtRow{
			Label: label,
			TopK:  k,
			NDCG:  ndcgSum / n,
			P:     pSum / n,
			R:     rSum / n,
			MRR:   metrics.MeanReciprocalRank(perQueryRel),
		})
	}
	return rows
}

// Fig10Extended evaluates the Figure 10 approaches under the extended
// ranking metrics.
func (e *Env) Fig10Extended() []ExtRow {
	o := e.socialOracle(e.optimalK())
	var rows []ExtRow
	rows = append(rows, e.EvaluateExtended("CSF", e.fusedRanker(0.7, o))...)
	rows = append(rows, e.EvaluateExtended("SR", e.fusedRanker(1.0, o))...)
	rows = append(rows, e.EvaluateExtended("CR", e.fusedRanker(0.0, o))...)
	rows = append(rows, e.EvaluateExtended("AFFRF", func(src string, topK int) []string {
		recs := e.AFFRF.Recommend(src, topK)
		ids := make([]string, len(recs))
		for i, r := range recs {
			ids[i] = r.ID
		}
		return ids
	})...)
	return rows
}
