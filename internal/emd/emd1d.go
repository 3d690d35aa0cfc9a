package emd

import (
	"math"
	"sort"
)

// Distance1D computes the exact EMD between two one-dimensional weighted
// point sets under the |x−y| ground distance. This is the fast path used for
// video cuboid signatures, whose cuboid values are single scalars (§4.1 of
// the paper: "we use bigrams and each v is a single value").
//
// For equal total masses the 1-D EMD has the closed form
//
//	EMD = ∫ |F₁(x) − F₂(x)| dx
//
// where F₁, F₂ are the cumulative mass functions. Weights must be
// non-negative and the two sets must carry equal non-zero total mass
// (normalize first with Normalize when reproducing Definition 1).
//
// Distance1D validates and sorts on every call; hot loops that hold
// pre-sorted, pre-validated points (signature.Compiled) should call
// Distance1DSorted directly, which allocates nothing.
func Distance1D(v1, w1, v2, w2 []float64) (float64, error) {
	if len(v1) == 0 || len(v2) == 0 {
		return 0, ErrEmpty
	}
	if len(v1) != len(w1) || len(v2) != len(w2) {
		return 0, ErrShape
	}
	s1, ok := ValidateWeights(w1)
	if !ok {
		return 0, weightsErr(w1)
	}
	s2, ok := ValidateWeights(w2)
	if !ok {
		return 0, weightsErr(w2)
	}
	if MassMismatch(s1, s2) {
		return 0, ErrMassMismatch
	}
	sv1 := append([]float64(nil), v1...)
	sw1 := append([]float64(nil), w1...)
	sv2 := append([]float64(nil), v2...)
	sw2 := append([]float64(nil), w2...)
	SortByValue(sv1, sw1)
	SortByValue(sv2, sw2)
	return Distance1DSorted(sv1, sw1, sv2, sw2, s1/s2), nil
}

// Distance1DSorted is the zero-allocation steady-state kernel behind
// Distance1D: an O(m+n) two-cursor merge over two point sets already sorted
// ascending by value. scale is multiplied into every set-2 weight so callers
// can absorb a tolerated relative mass mismatch (pass s1/s2; 1 when both
// sides are normalized).
//
// Preconditions (unchecked — the caller owns validation): both sets
// non-empty, v ascending, weights non-negative with equal scaled total mass
// within MassMismatch tolerance. Use signature.Compile / ValidateWeights to
// establish them once per stored object instead of per call.
func Distance1DSorted(v1, w1, v2, w2 []float64, scale float64) float64 {
	i, j := 0, 0
	var dist, cum, prev float64
	first := true
	for i < len(v1) || j < len(v2) {
		var x, w float64
		// Merge order is deterministic: ties take set 1 first. Equal-x points
		// contribute zero-width strips, so the tie rule cannot change the
		// integral — it only fixes the floating-point summation order.
		if j >= len(v2) || (i < len(v1) && v1[i] <= v2[j]) {
			x, w = v1[i], w1[i]
			i++
		} else {
			x, w = v2[j], -w2[j]*scale
			j++
		}
		if first {
			first = false
		} else {
			dist += math.Abs(cum) * (x - prev)
		}
		cum += w
		prev = x
	}
	return dist
}

// ValidateWeights checks a weight vector the way the EMD solvers do and
// returns its total mass: ok is false when any weight is negative or the
// total mass is below the solver tolerance. Compiled signature
// representations call it once at build time so the per-pair kernel can skip
// re-validation.
func ValidateWeights(w []float64) (mass float64, ok bool) {
	for _, x := range w {
		if x < 0 {
			return 0, false
		}
		mass += x
	}
	if mass <= massEps {
		return 0, false
	}
	return mass, true
}

// weightsErr maps an invalid weight vector to the error Distance1D reports.
func weightsErr(w []float64) error {
	for _, x := range w {
		if x < 0 {
			return ErrNegative
		}
	}
	return ErrZeroMass
}

// MassMismatch reports whether two total masses differ beyond the relative
// tolerance the EMD solvers accept (mismatches within it are absorbed by
// scaling inside the kernel).
func MassMismatch(s1, s2 float64) bool {
	return math.Abs(s1-s2) > 1e-6*math.Max(s1, s2)
}

// byValue sorts parallel value/weight slices by value, keeping equal values
// in their original order so sorting is a pure function of the input.
type byValue struct{ v, w []float64 }

func (s byValue) Len() int           { return len(s.v) }
func (s byValue) Less(i, j int) bool { return s.v[i] < s.v[j] }
func (s byValue) Swap(i, j int) {
	s.v[i], s.v[j] = s.v[j], s.v[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// SortByValue stably sorts a weighted point set in place by ascending value —
// the precondition of Distance1DSorted. Stability makes compiled
// representations deterministic for tie-heavy inputs.
func SortByValue(v, w []float64) {
	sort.Stable(byValue{v, w})
}

// LowerBound1D returns the centroid lower bound on the 1-D EMD between two
// normalized weighted point sets: EMD ≥ |Σ v₁·w₁ − Σ v₂·w₂| for any
// transportation plan (mass conservation moves the mean by at most the
// work spent). It is the cheap filter [35] applies before exact EMD: since
// SimC = 1/(1+EMD) ≤ 1/(1+LB), a pair whose bound already falls below the
// match threshold can be skipped without changing any result. Weights must
// be normalized for the bound to be valid.
func LowerBound1D(v1, w1, v2, w2 []float64) float64 {
	var m1, m2 float64
	for i, v := range v1 {
		m1 += v * w1[i]
	}
	for i, v := range v2 {
		m2 += v * w2[i]
	}
	return math.Abs(m1 - m2)
}
