// Package baselines implements the comparison systems of §5: the ERP [5]
// and DTW [7] sequence measures evaluated against κJ in Figure 7, and the
// AFFRF multimodal recommender of Yang et al. [33] (text + visual + aural
// attention fusion with relevance feedback) evaluated in Figure 10. The CR
// and SR baselines are Equation 9 at ω = 0 and ω = 1 (internal/oracle ranks
// them exhaustively; the engine serves them as videorec's ContentOnly and
// SocialOnly).
package baselines

import (
	"videorec/internal/emd"
	"videorec/internal/signature"
)

// sigDist is the element distance both sequence measures use: the exact
// 1-D EMD between two cuboid signatures.
func sigDist(a, b signature.Signature) float64 {
	if len(a.Cuboids) == 0 || len(b.Cuboids) == 0 {
		return gapDist(a) + gapDist(b)
	}
	av, aw := a.Values()
	bv, bw := b.Values()
	d, err := emd.Distance1D(av, aw, bv, bw)
	if err != nil {
		return 0
	}
	return d
}

// gapDist is the ERP gap cost: the distance of a signature to the constant
// reference element g = {(0, 1)} (a still segment).
func gapDist(a signature.Signature) float64 {
	if len(a.Cuboids) == 0 {
		return 0
	}
	av, aw := a.Values()
	d, err := emd.Distance1D(av, aw, []float64{0}, []float64{1})
	if err != nil {
		return 0
	}
	return d
}

// ERP computes the Edit distance with Real Penalty between two signature
// series: a sequence alignment where gaps are charged their distance to the
// constant reference element. It is order-sensitive — temporal re-editing
// breaks it, which is exactly why it loses to κJ in Figure 7.
func ERP(s1, s2 signature.Series) float64 {
	m, n := len(s1), len(s2)
	if m == 0 && n == 0 {
		return 0
	}
	// dp[i][j]: cost aligning s1[:i] with s2[:j].
	dp := make([][]float64, m+1)
	for i := range dp {
		dp[i] = make([]float64, n+1)
	}
	for i := 1; i <= m; i++ {
		dp[i][0] = dp[i-1][0] + gapDist(s1[i-1])
	}
	for j := 1; j <= n; j++ {
		dp[0][j] = dp[0][j-1] + gapDist(s2[j-1])
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			match := dp[i-1][j-1] + sigDist(s1[i-1], s2[j-1])
			gap1 := dp[i-1][j] + gapDist(s1[i-1])
			gap2 := dp[i][j-1] + gapDist(s2[j-1])
			dp[i][j] = min3(match, gap1, gap2)
		}
	}
	return dp[m][n]
}

// DTW computes the dynamic time warping distance between two signature
// series under the EMD element distance, normalized by the warping path
// length so series of different lengths compare fairly.
func DTW(s1, s2 signature.Series) float64 {
	m, n := len(s1), len(s2)
	if m == 0 || n == 0 {
		return 0
	}
	dp := make([][]float64, m+1)
	steps := make([][]int, m+1)
	for i := range dp {
		dp[i] = make([]float64, n+1)
		steps[i] = make([]int, n+1)
		for j := range dp[i] {
			dp[i][j] = 1e308
		}
	}
	dp[0][0] = 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			d := sigDist(s1[i-1], s2[j-1])
			best := dp[i-1][j-1]
			step := steps[i-1][j-1]
			if dp[i-1][j] < best {
				best = dp[i-1][j]
				step = steps[i-1][j]
			}
			if dp[i][j-1] < best {
				best = dp[i][j-1]
				step = steps[i][j-1]
			}
			dp[i][j] = best + d
			steps[i][j] = step + 1
		}
	}
	if steps[m][n] == 0 {
		return 0
	}
	return dp[m][n] / float64(steps[m][n])
}

// ERPSimilarity converts the ERP distance to a (0, 1] similarity, length
// normalized so longer series are not penalized.
func ERPSimilarity(s1, s2 signature.Series) float64 {
	n := len(s1) + len(s2)
	if n == 0 {
		return 0
	}
	return 1 / (1 + ERP(s1, s2)/float64(n))
}

// DTWSimilarity converts the path-normalized DTW distance to a (0, 1]
// similarity.
func DTWSimilarity(s1, s2 signature.Series) float64 {
	if len(s1) == 0 || len(s2) == 0 {
		return 0
	}
	return 1 / (1 + DTW(s1, s2))
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
