package experiments

import "fmt"

// TuneOmega grid-searches the fusion weight ω at the given granularity and
// returns the value maximizing mean AR at depth topK, together with the full
// sweep rows. It is the automated version of the paper's §5.3.2 manual
// tuning — an obvious extension for deployments whose community structure
// drifts over time (re-tune after heavy update periods).
func (e *Env) TuneOmega(step float64, topK int) (float64, []Row) {
	if step <= 0 || step > 0.5 {
		step = 0.1
	}
	o := e.socialOracle(e.optimalK())
	bestOmega, bestAR := 0.0, -1.0
	var all []Row
	for w := 0.0; w <= 1.0+1e-9; w += step {
		rows := e.Evaluate(fmt.Sprintf("w=%.2f", w), e.fusedRanker(w, o))
		all = append(all, rows...)
		for _, r := range rows {
			if r.TopK == topK && r.AR > bestAR {
				bestAR = r.AR
				bestOmega = w
			}
		}
	}
	return bestOmega, all
}
