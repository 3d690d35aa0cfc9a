// Package signature implements the video cuboid signature model of §4.1:
// each video segment is summarized by a set of cuboids (v, μ) where v is the
// average intensity change between temporally adjacent blocks and μ the
// relative block size; signatures are compared with EMD (SimC, Equation 3)
// and signature series with the extended Jaccard κJ (Equation 4).
package signature

import (
	"fmt"
	"math"
	"sort"

	"videorec/internal/video"
)

// Cuboid is one (v, μ) pair: v is the average intensity change of a merged
// block region between temporally adjacent keyframes (in raw intensity
// units, so v ∈ [−255, 255]), μ its weight (region size as a fraction of the
// frame, so Σμ = 1 per Definition 1).
type Cuboid struct {
	V  float64
	Mu float64
}

// Signature is one video cuboid signature: the cuboids of a single q-gram of
// temporally consecutive keyframes.
type Signature struct {
	Cuboids []Cuboid
}

// Series is a video's signature sequence — one Signature per q-gram window.
type Series []Signature

// Values returns the cuboid values and weights as parallel slices, the shape
// the EMD solvers consume.
func (s Signature) Values() (v, mu []float64) {
	return s.ValuesInto(nil, nil)
}

// ValuesInto is Values writing into the given slices' storage when they have
// the capacity, so hot paths (the LCP walker re-keys every query signature)
// reuse one pair of buffers instead of allocating per call. The returned
// slices must be used in place of the arguments.
func (s Signature) ValuesInto(v, mu []float64) (vv, mm []float64) {
	n := len(s.Cuboids)
	if cap(v) >= n {
		v = v[:n]
	} else {
		v = make([]float64, n)
	}
	if cap(mu) >= n {
		mu = mu[:n]
	} else {
		mu = make([]float64, n)
	}
	for i, c := range s.Cuboids {
		v[i] = c.V
		mu[i] = c.Mu
	}
	return v, mu
}

// TotalMass returns Σμ (1 up to floating point for extracted signatures).
func (s Signature) TotalMass() float64 {
	var t float64
	for _, c := range s.Cuboids {
		t += c.Mu
	}
	return t
}

// Mean returns the mass-weighted mean cuboid value Σ v·μ — the quantity the
// centroid EMD lower bound compares (emd.LowerBound1D).
func (s Signature) Mean() float64 {
	var m float64
	for _, c := range s.Cuboids {
		m += c.V * c.Mu
	}
	return m
}

// DefaultMatchThreshold is the SimC level above which two cuboid signatures
// count as a matched pair in κJ. At the default VScale it cleanly separates
// edited near-duplicates (which stay above it) from unrelated clips (whose
// pairs essentially never reach it).
const DefaultMatchThreshold = 0.5

// Options tunes signature extraction.
type Options struct {
	Grid             int     // blocks per frame side (Grid×Grid equal blocks)
	MergeThreshold   float64 // max mean-intensity gap for merging adjacent blocks
	KeyframesPerShot int     // keyframes sampled per detected shot
	Q                int     // q-gram length; the paper uses bigrams (Q=2)
	VScale           float64 // intensity units per EMD unit (v = Δ/VScale)
	Cut              video.CutOptions
}

// DefaultOptions follow the paper's simplification: bigrams with scalar v.
func DefaultOptions() Options {
	return Options{
		Grid:             8,
		MergeThreshold:   6,
		KeyframesPerShot: 3,
		Q:                2,
		VScale:           4,
		Cut:              video.DefaultCutOptions(),
	}
}

// Extract converts a video into its signature series: detect shots, sample
// keyframes per shot, slide a Q-length window over each shot's keyframes and
// build one cuboid signature per window. A shot with fewer than Q keyframes
// contributes one signature built from its available keyframes (with the
// last keyframe repeated), so no shot is silently dropped.
func Extract(v *video.Video, opts Options) Series {
	s, _ := ExtractCancelled(v, opts, nil)
	return s
}

// ExtractCancelled is Extract with cooperative cancellation: cancelled (when
// non-nil) is polled between shots and between q-gram windows — every window
// builds one signature's worth of cuboids, so a cancellation lands within
// one signature of being requested even inside a very long single clip. A
// true return abandons the extraction; the second result reports whether the
// series is complete.
func ExtractCancelled(v *video.Video, opts Options, cancelled func() bool) (Series, bool) {
	if opts.Grid <= 0 || opts.Q < 2 {
		panic(fmt.Sprintf("signature: invalid options %+v", opts))
	}
	shots := video.Shots(v, opts.Cut)
	var series Series
	for _, shot := range shots {
		if cancelled != nil && cancelled() {
			return nil, false
		}
		if shot.Len() <= 0 {
			continue
		}
		keys := video.Keyframes(v, []video.Shot{shot}, opts.KeyframesPerShot)
		if len(keys) == 0 {
			continue
		}
		for len(keys) < opts.Q {
			keys = append(keys, keys[len(keys)-1])
		}
		for w := 0; w+opts.Q <= len(keys); w++ {
			if cancelled != nil && cancelled() {
				return nil, false
			}
			sig := buildSignature(keys[w:w+opts.Q], opts)
			if len(sig.Cuboids) > 0 {
				series = append(series, sig)
			}
		}
	}
	return series, true
}

// buildSignature constructs one cuboid signature over q consecutive
// keyframes: partition the reference (first) keyframe into Grid×Grid blocks,
// merge spatially adjacent similar blocks into regions, then for each region
// average the per-transition intensity change across the q-gram.
func buildSignature(keys []*video.Frame, opts Options) Signature {
	ref := keys[0]
	g := opts.Grid
	regions := mergeBlocks(ref, g, opts.MergeThreshold)

	// Per-region mean intensity in every keyframe.
	nRegions := 0
	for _, r := range regions {
		if r+1 > nRegions {
			nRegions = r + 1
		}
	}
	means := make([][]float64, len(keys))
	sizes := make([]float64, nRegions)
	bw := (ref.W + g - 1) / g
	bh := (ref.H + g - 1) / g
	for ki, f := range keys {
		means[ki] = make([]float64, nRegions)
		counts := make([]float64, nRegions)
		for by := 0; by < g; by++ {
			for bx := 0; bx < g; bx++ {
				r := regions[by*g+bx]
				m := f.BlockMean(bx*bw, by*bh, (bx+1)*bw, (by+1)*bh)
				means[ki][r] += m
				counts[r]++
			}
		}
		for r := range means[ki] {
			if counts[r] > 0 {
				means[ki][r] /= counts[r]
			}
			if ki == 0 {
				sizes[r] = counts[r]
			}
		}
	}

	total := float64(g * g)
	sig := Signature{Cuboids: make([]Cuboid, 0, nRegions)}
	for r := 0; r < nRegions; r++ {
		if sizes[r] == 0 {
			continue
		}
		var dv float64
		for ki := 1; ki < len(keys); ki++ {
			dv += means[ki][r] - means[ki-1][r]
		}
		dv /= float64(len(keys) - 1)
		scale := opts.VScale
		if scale <= 0 {
			scale = 1
		}
		sig.Cuboids = append(sig.Cuboids, Cuboid{
			V:  dv / scale,
			Mu: sizes[r] / total,
		})
	}
	return sig
}

// mergeBlocks region-grows the Grid×Grid block lattice of the reference
// frame: 4-adjacent blocks whose mean intensities differ by at most thresh
// are merged (union-find). It returns a dense region id per block cell.
func mergeBlocks(f *video.Frame, g int, thresh float64) []int {
	bw := (f.W + g - 1) / g
	bh := (f.H + g - 1) / g
	means := make([]float64, g*g)
	for by := 0; by < g; by++ {
		for bx := 0; bx < g; bx++ {
			means[by*g+bx] = f.BlockMean(bx*bw, by*bh, (bx+1)*bw, (by+1)*bh)
		}
	}
	parent := make([]int, g*g)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for by := 0; by < g; by++ {
		for bx := 0; bx < g; bx++ {
			i := by*g + bx
			if bx+1 < g && math.Abs(means[i]-means[i+1]) <= thresh {
				union(i, i+1)
			}
			if by+1 < g && math.Abs(means[i]-means[i+g]) <= thresh {
				union(i, i+g)
			}
		}
	}
	// Densify region ids.
	next := 0
	dense := make(map[int]int)
	out := make([]int, g*g)
	for i := range out {
		r := find(i)
		id, ok := dense[r]
		if !ok {
			id = next
			dense[r] = id
			next++
		}
		out[i] = id
	}
	return out
}

// SimC is Equation 3: 1/(1+EMD) between two signatures, using the 1-D
// closed-form EMD (cuboid values are scalar). It compiles both signatures on
// the fly and runs the same merge kernel as SimCCompiled, so the two paths
// are bit-identical; loops comparing stored signatures repeatedly should
// compile once and use SimCCompiled instead.
func SimC(a, b Signature) float64 {
	ca, cb := Compile(a), Compile(b)
	return SimCCompiled(&ca, &cb)
}

// KJ is Equation 4: the extended Jaccard over two signature series. Pairs
// are greedily matched in decreasing SimC order; pairs below matchThreshold
// stay unmatched. |S1 ∪ S2| is |S1| + |S2| − #matched, following the
// set-based measure of [35], and the numerator sums SimC over matched pairs.
//
// KJ is the reference implementation over raw series; the serving hot path
// uses KJCancelCompiled over precompiled series, which is bit-identical
// (golden-tested) and allocation-free in steady state.
func KJ(s1, s2 Series, matchThreshold float64) float64 {
	if len(s1) == 0 || len(s2) == 0 {
		return 0
	}
	type pair struct {
		i, j int
		sim  float64
	}
	// Centroid lower-bound filter ([35]): SimC ≤ 1/(1+|mean₁−mean₂|), so a
	// pair whose bound is already below the threshold cannot match and the
	// exact EMD is skipped. Exact pruning — results are unchanged.
	means1 := make([]float64, len(s1))
	for i, sig := range s1 {
		means1[i] = sig.Mean()
	}
	means2 := make([]float64, len(s2))
	for j, sig := range s2 {
		means2[j] = sig.Mean()
	}
	pairs := make([]pair, 0, len(s1)*len(s2))
	for i := range s1 {
		for j := range s2 {
			if matchThreshold > 0 {
				lb := means1[i] - means2[j]
				if lb < 0 {
					lb = -lb
				}
				if 1/(1+lb) < matchThreshold {
					continue
				}
			}
			if sim := SimC(s1[i], s2[j]); sim >= matchThreshold {
				pairs = append(pairs, pair{i, j, sim})
			}
		}
	}
	// Greedy maximum matching by similarity. Ties are broken (i asc, j asc)
	// so the order — and therefore the matching and the κJ value — is a pure
	// function of the input, stable across sort algorithms and Go versions.
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].sim != pairs[b].sim {
			return pairs[a].sim > pairs[b].sim
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	usedI := make([]bool, len(s1))
	usedJ := make([]bool, len(s2))
	var num float64
	matched := 0
	for _, p := range pairs {
		if usedI[p.i] || usedJ[p.j] {
			continue
		}
		usedI[p.i] = true
		usedJ[p.j] = true
		num += p.sim
		matched++
	}
	union := float64(len(s1) + len(s2) - matched)
	if union <= 0 {
		return 0
	}
	return num / union
}
