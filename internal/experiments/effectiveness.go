package experiments

import (
	"fmt"

	"videorec/internal/baselines"
	"videorec/internal/community"
	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/metrics"
	"videorec/internal/oracle"
	"videorec/internal/signature"
	"videorec/internal/spectral"
)

// Table2 returns the five queries with their source videos — the contents of
// Table 2 plus the per-query sources the evaluation uses.
func (e *Env) Table2() []dataset.Query { return e.Col.Queries }

// Silhouette reproduces the in-text §4.2.2 comparison: cluster the users of
// a random video sample with our sub-community extraction and with spectral
// clustering, and report both Silhouette Coefficients (paper: 0.498 vs
// 0.242). The user distance is 1 − Jaccard over interest sets. sampleVideos
// bounds the sample; users are capped so the O(n³) spectral eigensolve stays
// tractable.
func (e *Env) Silhouette(sampleVideos, k int) (ours, spec float64) {
	audiences := map[string][]string{}
	userSet := map[string]bool{}
	const maxUsers = 220
	for i, it := range e.Col.Items {
		if i >= sampleVideos {
			break
		}
		users := e.Descs[it.ID].Users()
		kept := make([]string, 0, len(users))
		for _, u := range users {
			if userSet[u] || len(userSet) < maxUsers {
				userSet[u] = true
				kept = append(kept, u)
			}
		}
		audiences[it.ID] = kept
	}
	// Cluster the users the dictionary actually groups: drive-by commenters
	// carry no community signal and are excluded from the UIG at build time
	// (see core.FilterAudiences); clustering them is meaningless for either
	// algorithm.
	audiences = core.FilterAudiences(audiences, 4)
	g := community.BuildUIG(audiences)
	users := g.Users()
	if len(users) < 4 {
		return 0, 0
	}

	// Interest sets for the distance function: the user's full commenting
	// history over the whole collection, not just the sampled videos —
	// sample-restricted sets are too sparse to carry a usable distance.
	// The distance mirrors UIG semantics: d = 1/(1 + #shared videos), so
	// strongly co-commenting users are close regardless of how much else
	// they each watch.
	interest := map[string]map[string]bool{}
	for _, it := range e.Col.Items {
		for _, u := range e.Descs[it.ID].Users() {
			if interest[u] == nil {
				interest[u] = map[string]bool{}
			}
			interest[u][it.ID] = true
		}
	}
	dist := func(a, b string) float64 {
		ia, ib := interest[a], interest[b]
		inter := 0
		for v := range ia {
			if ib[v] {
				inter++
			}
		}
		return 1 / (1 + float64(inter))
	}

	p := community.ExtractSubCommunities(g, k)
	ours = metrics.Silhouette(users, p.AssignMap(), dist)
	spec = metrics.Silhouette(users, spectral.Cluster(g, k, e.Scale.Seed), dist)
	return ours, spec
}

// Fig7 compares the three content similarity measures — ERP, DTW and κJ —
// as content-only rankers (Figure 7 a–c).
func (e *Env) Fig7() []Row {
	var rows []Row
	measures := []struct {
		label string
		sim   func(a, b signature.Series) float64
	}{
		{"ERP", baselines.ERPSimilarity},
		{"DTW", baselines.DTWSimilarity},
		{"kJ", func(a, b signature.Series) float64 {
			return signature.KJ(a, b, signature.DefaultMatchThreshold)
		}},
	}
	for _, m := range measures {
		m := m
		rows = append(rows, e.Evaluate(m.label, func(src string, topK int) []string {
			var scored []oracle.Result
			for _, it := range e.Col.Items {
				if it.ID != src {
					scored = append(scored, oracle.Result{VideoID: it.ID, Score: m.sim(e.Series[src], e.Series[it.ID])})
				}
			}
			return resultIDs(oracle.Top(scored, topK))
		})...)
	}
	return rows
}

// socialOracle ranks the collection under the engine's sub-community
// partition at a given k, built over the source-period descriptors.
func (e *Env) socialOracle(k int) *oracle.Oracle {
	opts := core.DefaultOptions()
	opts.K = k
	return oracleOf(e.BuildRecommender(opts, e.Col))
}

// fusedRanker ranks by FJ = (1−ω)·κJ + ω·s̃J through the oracle.
func (e *Env) fusedRanker(omega float64, o *oracle.Oracle) Ranker {
	return func(src string, topK int) []string {
		q, _ := o.Query(src)
		return resultIDs(o.Fuse(e.content(o, src), o.SocialRelevance(q, oracle.SAR), omega, topK, src))
	}
}

func resultIDs(res []oracle.Result) []string {
	ids := make([]string, len(res))
	for i, r := range res {
		ids[i] = r.VideoID
	}
	return ids
}

// Fig8 sweeps the fusion weight ω (Figure 8 a–c). The paper's peak is 0.7.
func (e *Env) Fig8(omegas []float64) []Row {
	o := e.socialOracle(e.optimalK())
	var rows []Row
	for _, w := range omegas {
		rows = append(rows, e.Evaluate(fmt.Sprintf("w=%.1f", w), e.fusedRanker(w, o))...)
	}
	return rows
}

// Fig9 sweeps the sub-community count k (Figure 9 a–c). The paper plateaus
// from 60. The sweep values scale with the collection: at DefaultScale the
// community is ~8x smaller than the paper's, so ks are interpreted as-is.
func (e *Env) Fig9(ks []int) []Row {
	var rows []Row
	for _, k := range ks {
		rows = append(rows, e.Evaluate(fmt.Sprintf("k=%d", k), e.fusedRanker(0.7, e.socialOracle(k)))...)
	}
	return rows
}

// optimalK is the scale's tuned k clamped to the community's user count.
func (e *Env) optimalK() int {
	k := e.Scale.OptimalK
	if k < 1 {
		k = 60
	}
	if n := len(e.Col.Users); k > n {
		k = n
	}
	return k
}

// Fig10 compares the four recommendation approaches (Figure 10 a–c):
// SR (social only), CSF (content-social fusion at the tuned ω and k),
// CR (content only, [35]) and AFFRF (multimodal + relevance feedback [33]).
func (e *Env) Fig10() []Row {
	o := e.socialOracle(e.optimalK())
	var rows []Row
	rows = append(rows, e.Evaluate("CSF", e.fusedRanker(0.7, o))...)
	rows = append(rows, e.Evaluate("SR", e.fusedRanker(1.0, o))...)
	rows = append(rows, e.Evaluate("CR", e.fusedRanker(0.0, o))...)
	rows = append(rows, e.Evaluate("AFFRF", func(src string, topK int) []string {
		recs := e.AFFRF.Recommend(src, topK)
		ids := make([]string, len(recs))
		for i, r := range recs {
			ids[i] = r.ID
		}
		return ids
	})...)
	return rows
}

// Fig11 measures effectiveness stability under social updates (Figure 11
// a–c): the recommender is built on the 12-month source period, then 1–4
// months of test-period comments are replayed through the Figure 5
// maintenance path, re-evaluating after each extra month. Each evaluation
// ranks exhaustively through the oracle, over the maintained recommender's
// records and partition.
func (e *Env) Fig11() []Row {
	opts := core.DefaultOptions()
	opts.K = e.optimalK()
	r := e.BuildRecommender(opts, e.Col)

	evalNow := func(label string) []Row {
		return e.Evaluate(label, e.fusedRanker(opts.Omega, oracleOf(r)))
	}
	rows := evalNow("0mo")
	months := e.Col.Opts.MonthsSource
	for m := 0; m < e.Col.Opts.MonthsTest; m++ {
		batch := map[string][]string{}
		for _, it := range e.Col.Items {
			for _, cm := range it.Comments {
				if cm.Month == months+m {
					batch[it.ID] = append(batch[it.ID], cm.User)
				}
			}
		}
		r.ApplyUpdates(batch)
		rows = append(rows, evalNow(fmt.Sprintf("%dmo", m+1))...)
	}
	return rows
}
