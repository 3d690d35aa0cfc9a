// Compiled signature representations: the per-pair κJ/SimC kernel is the
// dominant cost of the Figure 6 kNN refinement, so everything that can be
// derived once per stored video — sorted cuboid values, validated weights,
// centroid mean, total mass, a quantile sketch that bounds the EMD from
// below — is precomputed here, and the steady-state comparison path allocates
// nothing (scratch buffers owned by the caller, one per refine worker).
package signature

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"videorec/internal/emd"
)

// SketchBins is the number of equal-mass quantile bins in a compiled
// signature's sketch. One bin is the centroid bound of [35]; eight skip five
// in six of the EMDs the centroid lets through on the benchmark corpus (56 %
// of signature pairs reach the EMD with one bin, 9 % with eight), for 64 bytes
// per signature.
const SketchBins = 8

// boundSlack is the relative head-room every similarity upper bound carries.
// The bounds are exact in real arithmetic; the sketch, the merge kernel and
// the κJ sum each round a few dozen times (relative error ≈ 1e-14 for cuboid
// values within ±255), so a bound inflated by 1e-9 can never fall below the
// value the kernel computes, and a pair or candidate is only ever skipped
// when it provably could not have counted.
const boundSlack = 1e-9

// Compiled is one cuboid signature prepared for the zero-allocation EMD
// kernel: values sorted ascending (stably, so compilation is a pure function
// of the signature), weights aligned, and the total mass and validity every
// comparison re-derived computed once. What the bounds read of a signature
// lives apart from it, in its Sketch.
//
// Mass is accumulated in original cuboid order, exactly as
// Signature.TotalMass does, so the compiled path is bit-identical to the
// uncompiled one.
type Compiled struct {
	V, W []float64 // cuboid values/weights, stable-sorted by value
	Mass float64   // Σ μ (1 up to floating point for extracted signatures)
	OK   bool      // non-empty, no negative weights, mass above solver tolerance
}

// Sketch is everything the pair bounds read of one compiled signature: the
// centroid of [35] and a quantile sketch. A CompiledSeries keeps its
// signatures' sketches in one dense array beside the exact data (the
// VA-file layout of Weber, Schek & Blott: compact approximations apart from
// what they approximate), so a bound over a stored series walks one
// contiguous block.
type Sketch struct {
	// Mean is Σ v·μ, accumulated in original cuboid order as Signature.Mean
	// does: the centroid the κJ lower-bound filter compares.
	Mean float64

	// Q is the quantile sketch: Q[b] is the mean cuboid value over the b-th
	// of SketchBins equal slices of the signature's mass, in value order.
	// 1-D EMD is ∫|Q₁(u)−Q₂(u)|du over the quantile functions, and on each
	// slice |∫(Q₁−Q₂)| ≤ ∫|Q₁−Q₂| (Jensen), so (Mass/SketchBins)·Σ|Q₁[b]−Q₂[b]|
	// never exceeds Distance1DSorted. All NaN unless the signature is OK:
	// every sketch distance to it is then NaN, which no bound lets through,
	// so a pair with an invalid side is rejected as SimC's validity test
	// would reject it.
	Q [SketchBins]float64
}

// MaxCuboids bounds the cuboids of one signature that can be compiled: a
// CompiledSeries keeps each sorted cuboid's extraction-order position as a
// uint16. Extraction yields at most Grid² cuboids per signature (one per
// merged block region), so every Grid up to MaxGrid stays within it.
const MaxCuboids = 1 << 16

// MaxGrid is the largest Options.Grid whose signatures always compile.
const MaxGrid = 256

// Compile builds the compiled form of one signature, without its sketch. It
// panics if the signature has more than MaxCuboids cuboids.
func Compile(s Signature) Compiled {
	return compile(s, make([]uint16, len(s.Cuboids)), nil)
}

// compile is Compile recording the sort permutation in perm (len(s.Cuboids)
// long) and, when sk is non-nil, the signature's sketch in *sk: V[k] and
// W[k] are cuboid perm[k] of s. Sorting the indices and then
// gathering runs the same stable insertion-block and symMerge passes as
// sorting the value and weight arrays in place (emd.SortByValue), with the
// same comparisons, so the result is identical bit for bit — ties, ±0 and
// NaN included — while each move shifts two bytes instead of two float64s.
func compile(s Signature, perm []uint16, sk *Sketch) Compiled {
	n := len(s.Cuboids)
	if n > MaxCuboids {
		panic(fmt.Sprintf("signature: %d cuboids exceed MaxCuboids (%d)", n, MaxCuboids))
	}
	c := Compiled{V: make([]float64, n), W: make([]float64, n)}
	for i, cb := range s.Cuboids {
		c.V[i], c.W[i] = cb.V, cb.Mu
		perm[i] = uint16(i)
	}
	mean, mass, ok := moments(c.V, c.W)
	c.Mass, c.OK = mass, ok
	slices.SortStableFunc(perm, func(a, b uint16) int {
		switch va, vb := s.Cuboids[a].V, s.Cuboids[b].V; {
		case va < vb:
			return -1
		case vb < va:
			return 1
		}
		return 0
	})
	for k, p := range perm {
		c.V[k], c.W[k] = s.Cuboids[p].V, s.Cuboids[p].Mu
	}
	if sk != nil {
		*sk = c.sketch(mean)
	}
	return c
}

// moments returns Σ v·μ over a signature's cuboids in extraction order, and
// its validated mass (not OK when empty). Compilation and
// CompiledFromSorted both call it and sketch, neither of which is inlined,
// so the two run the same machine code and agree bit for bit, NaN payloads
// included: which operand's payload an IEEE operation keeps can change with
// the instruction the compiler picks at each call site.
//
//go:noinline
func moments(v, w []float64) (mean, mass float64, ok bool) {
	for i := range v {
		mean += v[i] * w[i]
	}
	mass, ok = emd.ValidateWeights(w)
	return mean, mass, ok && len(v) > 0
}

// sketch is the signature's sketch, given its Mean.
//
//go:noinline
func (c *Compiled) sketch(mean float64) Sketch {
	sk := Sketch{Mean: mean}
	if c.OK {
		sk.Q = c.quantiles()
	} else {
		for b := range sk.Q {
			sk.Q[b] = math.NaN()
		}
	}
	return sk
}

// quantiles computes the sketch's Q from the sorted cuboids: walk the mass
// in value order, cutting a cuboid's weight wherever a bin boundary falls
// inside it.
func (c *Compiled) quantiles() (q [SketchBins]float64) {
	binMass := c.Mass / SketchBins
	b, room, acc, top := 0, binMass, 0.0, 0.0
	for i, w := range c.W {
		if w > 0 {
			top = c.V[i]
		}
		for w > room && b < SketchBins-1 {
			q[b] = (acc + c.V[i]*room) / binMass
			w -= room
			b, room, acc = b+1, binMass, 0
		}
		acc += c.V[i] * w
		room -= w
	}
	// Σ W in sorted order can land an ulp short of Mass: the shortfall sits at
	// the top of the value range.
	if room > 0 {
		acc += top * room
	}
	q[b] = acc / binMass
	for b++; b < SketchBins; b++ {
		q[b] = top
	}
	return q
}

// sketchSum is Σ|Q₁[b]−Q₂[b]|, the sketches' gap: times Mass₁/SketchBins it
// is the quantile-sketch lower bound on the EMD SimCCompiled would compute
// for the pair (set-2 weights scaled to a's mass, which leaves b's bin means
// unchanged). It is NaN when either signature is invalid, and never -0.
func sketchSum(a, b *Sketch) float64 {
	// Written out, and summed left to right as a loop over the bins would.
	return math.Abs(a.Q[0]-b.Q[0]) + math.Abs(a.Q[1]-b.Q[1]) + math.Abs(a.Q[2]-b.Q[2]) + math.Abs(a.Q[3]-b.Q[3]) +
		math.Abs(a.Q[4]-b.Q[4]) + math.Abs(a.Q[5]-b.Q[5]) + math.Abs(a.Q[6]-b.Q[6]) + math.Abs(a.Q[7]-b.Q[7])
}

// sketchSum names eight bins; this fails to compile if SketchBins changes.
var _ = [1]struct{}{}[SketchBins-8]

// sketchBound is the bound on SimC = 1/(1+EMD) at sketch gap d, for a query
// signature of mass m > 0. It never grows with d under IEEE rounding: the
// product with m, the scaling, the sum and the quotient each round
// monotonically. So the least gap in a row gives the row's largest bound,
// bit for bit.
func sketchBound(d, m float64) float64 {
	return (1 + boundSlack) / (1 + d*m/SketchBins)
}

// centroidCut is the centroid test of [35] as one comparison: the least gap
// g ≥ 0 with 1/(1+g) < t, so that for every gap g = |Mean₁ − Mean₂|,
// g >= cut exactly when the division test rejects the pair — NaN included,
// which both pass. It is NaN when no gap fails the test (t ≤ 0 or NaN). The
// test's value never grows with g under IEEE rounding, so the gaps that fail
// it are every float from cut up; a binary search over the float bit
// patterns finds it, within a bracket around 1/t − 1 that it checks first.
func centroidCut(t float64) float64 {
	fails := func(g float64) bool { return 1/(1+g) < t }
	if !fails(math.Inf(1)) {
		return math.NaN()
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // the cut is in [lo, hi]
	c, w := 1/t-1, 0x1p-40*max(1, 1/t)
	if l, h := max(c-w, 0), c+w; l <= h && !fails(l) && fails(h) {
		lo, hi = math.Float64bits(l), math.Float64bits(h)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fails(math.Float64frombits(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(hi)
}

// pairCanMatch is the κJ kernel's pair filter: false when a pair provably
// cannot reach matchThreshold (> 0) — the centroid test first, then the
// pair's sketch bound, whose NaN for an invalid side fails the comparison as
// SimC's validity test would. aMass is a's Compiled.Mass and cut
// centroidCut(matchThreshold). A pair rejected here has SimC <
// matchThreshold, so skipping its EMD changes no matching.
func pairCanMatch(a, b *Sketch, aMass, matchThreshold, cut float64) bool {
	if math.Abs(a.Mean-b.Mean) >= cut { // a NaN gap passes, as it passes the division
		return false
	}
	return sketchBound(sketchSum(a, b), aMass) >= matchThreshold
}

// CompiledSeries is a signature series compiled for refinement: one Compiled
// and one Sketch per q-gram signature. It is immutable after construction
// and safe to share across any number of concurrent readers; views keep one
// per stored video, and it is the only form of a stored video's content they
// keep — Series rebuilds the raw series from it exactly.
type CompiledSeries struct {
	Sigs []Compiled

	// Sketches[i] is Sigs[i]'s sketch, all of them in one array allocated at
	// compile: the bounds read this and nothing else of a stored series.
	Sketches []Sketch

	// perm is every signature's sort permutation in turn, in one backing
	// array: Sigs[i].V[k] and W[k] are cuboid perm[o+k] of signature i in
	// extraction order, o being the cuboid count of Sigs[:i].
	perm []uint16
}

// CompileSeries compiles every signature of a series. A nil or empty series
// compiles to an empty CompiledSeries, which κJ treats exactly like the
// empty raw series (relevance 0). It panics if a signature has more than
// MaxCuboids cuboids.
func CompileSeries(s Series) *CompiledSeries {
	n := 0
	for _, sig := range s {
		n += len(sig.Cuboids)
	}
	cs := &CompiledSeries{Sigs: make([]Compiled, len(s)), Sketches: make([]Sketch, len(s)), perm: make([]uint16, n)}
	o := 0
	for i, sig := range s {
		m := len(sig.Cuboids)
		cs.Sigs[i] = compile(sig, cs.perm[o:o+m:o+m], &cs.Sketches[i])
		o += m
	}
	return cs
}

// Perm returns every signature's sort permutation in turn, in one array:
// Sigs[i].V[k] and W[k] are cuboid Perm()[o+k] of signature i in extraction
// order, o being the cuboid count of Sigs[:i]. With the sorted V and W it is
// the whole series, which CompiledFromSorted takes back. The caller must not
// modify it.
func (cs *CompiledSeries) Perm() []uint16 { return cs.perm }

// CompiledFromSorted rebuilds a compiled series from its sorted form without
// sorting: v[i] and w[i] are signature i's sorted values and weights, and
// perm holds every signature's permutation in turn (the layout of Perm).
// The result aliases v[i], w[i] and perm. Mass, validity and the sketch's
// Mean are accumulated in extraction order through the permutation, as
// compile accumulates them, so an accepted input gives
// CompileSeries(cs.Series()) bit for bit. An input that stable sorting
// could not have produced is an error: a permutation that is not one, V
// out of order, tied values whose permutation entries do not ascend, or
// more than MaxCuboids cuboids. A signature holding a NaN value, which the
// sort compares as a tie with everything, is re-sorted and must match.
func CompiledFromSorted(v, w [][]float64, perm []uint16) (*CompiledSeries, error) {
	if len(w) != len(v) {
		return nil, fmt.Errorf("signature: %d signatures of values, %d of weights", len(v), len(w))
	}
	total, widest := 0, 0
	for i := range v {
		n := len(v[i])
		if n > MaxCuboids || len(w[i]) != n {
			return nil, fmt.Errorf("signature: signature %d has %d values and %d weights (max %d)", i, n, len(w[i]), MaxCuboids)
		}
		total += n
		widest = max(widest, n)
	}
	if len(perm) != total {
		return nil, fmt.Errorf("signature: %d cuboids, %d permutation entries", total, len(perm))
	}
	cs := &CompiledSeries{Sigs: make([]Compiled, len(v)), Sketches: make([]Sketch, len(v)), perm: perm}
	ext := make([]float64, 2*widest) // extraction-order values, then weights
	seen := make([]bool, widest)
	o := 0
	for i := range v {
		n := len(v[i])
		sv, sw, sp := v[i], w[i], perm[o:o+n:o+n]
		o += n
		ev, ew := ext[:n], ext[widest:widest+n]
		clear(seen[:n])
		hasNaN := false
		for k, p := range sp {
			if int(p) >= n || seen[p] {
				return nil, fmt.Errorf("signature: signature %d: permutation entry %d is %d, not a permutation of %d", i, k, p, n)
			}
			seen[p] = true
			ev[p], ew[p] = sv[k], sw[k]
			hasNaN = hasNaN || math.IsNaN(sv[k])
		}
		if hasNaN {
			sig := Signature{Cuboids: make([]Cuboid, n)}
			for j := range sig.Cuboids {
				sig.Cuboids[j] = Cuboid{V: ev[j], Mu: ew[j]}
			}
			p := make([]uint16, n)
			if compile(sig, p, nil); !slices.Equal(p, sp) {
				return nil, fmt.Errorf("signature: signature %d: values are not in stable sorted order", i)
			}
		} else {
			for k := 1; k < n; k++ {
				if sv[k] < sv[k-1] || sv[k] == sv[k-1] && sp[k] < sp[k-1] {
					return nil, fmt.Errorf("signature: signature %d: values are not in stable sorted order at %d", i, k)
				}
			}
		}
		c := Compiled{V: sv, W: sw}
		mean, mass, ok := moments(ev, ew)
		c.Mass, c.OK = mass, ok
		cs.Sigs[i] = c
		cs.Sketches[i] = c.sketch(mean)
	}
	return cs, nil
}

// Identical reports whether cs and o are equal bit for bit: every
// signature's sorted values and weights, mass and validity, every sketch,
// and the permutations.
func (cs *CompiledSeries) Identical(o *CompiledSeries) bool {
	if len(cs.Sigs) != len(o.Sigs) || len(cs.Sketches) != len(o.Sketches) || !slices.Equal(cs.perm, o.perm) {
		return false
	}
	for i := range cs.Sigs {
		a, b := &cs.Sigs[i], &o.Sigs[i]
		if !sameBits(a.V, b.V) || !sameBits(a.W, b.W) || math.Float64bits(a.Mass) != math.Float64bits(b.Mass) || a.OK != b.OK {
			return false
		}
		p, q := &cs.Sketches[i], &o.Sketches[i]
		if math.Float64bits(p.Mean) != math.Float64bits(q.Mean) || !sameBits(p.Q[:], q.Q[:]) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// EachSignature calls f with every signature's cuboid values and weights in
// extraction order, in turn: the series' Values without rebuilding it. The
// slices are reused between calls.
func (cs *CompiledSeries) EachSignature(f func(v, mu []float64)) {
	widest := 0
	for i := range cs.Sigs {
		widest = max(widest, len(cs.Sigs[i].V))
	}
	buf := make([]float64, 2*widest)
	o := 0
	for i := range cs.Sigs {
		c := &cs.Sigs[i]
		n := len(c.V)
		v, mu := buf[:n], buf[widest:widest+n]
		for k, p := range cs.perm[o : o+n] {
			v[p], mu[p] = c.V[k], c.W[k]
		}
		o += n
		f(v, mu)
	}
}

// Series rebuilds the raw series the compiled form was built from, cuboids
// in extraction order. W is the weights as given (validation only reads
// them), so the rebuild is exact: CompileSeries(s).Series() equals s bit for
// bit, an empty signature coming back with nil cuboids. The result is a
// fresh copy the caller owns.
func (cs *CompiledSeries) Series() Series {
	s := make(Series, len(cs.Sigs))
	o := 0
	for i := range cs.Sigs {
		c := &cs.Sigs[i]
		if len(c.V) == 0 {
			continue
		}
		cb := make([]Cuboid, len(c.V))
		for k, p := range cs.perm[o : o+len(c.V)] {
			cb[p] = Cuboid{V: c.V[k], Mu: c.W[k]}
		}
		s[i].Cuboids = cb
		o += len(c.V)
	}
	return s
}

// Envelope is everything KJEnvelopeBound reads of a stored series: the range
// [Lo, Hi] of its OK signatures' normalised centroids Mean/Mass, each
// widened by its centroidMargin (Lo > Hi when no signature is OK), and the
// series' length N. It is a small value, so a caller can keep one per stored
// series in a flat column and bound a candidate without touching its
// signatures.
type Envelope struct {
	Lo, Hi float64
	N      int
}

// Envelope computes the series' centroid envelope.
func (cs *CompiledSeries) Envelope() Envelope {
	e := Envelope{Lo: math.Inf(1), Hi: math.Inf(-1), N: len(cs.Sigs)}
	for i := range cs.Sigs {
		if c, sk := &cs.Sigs[i], &cs.Sketches[i]; c.OK {
			m := sk.centroidMargin()
			e.Lo = min(e.Lo, sk.Mean/c.Mass-m)
			e.Hi = max(e.Hi, sk.Mean/c.Mass+m)
		}
	}
	return e
}

// centroidMargin is how far the sketch's centroid ΣQ/SketchBins can sit from
// the computed Mean/Mass of an OK signature. The two agree in real
// arithmetic; in floating point each is a sum of at most a few dozen
// products whose magnitudes are bounded by a small multiple of the largest
// bin mean |Q| (the quantile function is monotone), so they differ by well
// under 1e-13 of that scale. boundSlack of it, plus boundSlack absolute for
// values near zero, covers that with four orders of magnitude to spare.
func (s *Sketch) centroidMargin() float64 {
	return boundSlack * (1 + max(math.Abs(s.Q[0]), math.Abs(s.Q[SketchBins-1])))
}

// Len returns the number of compiled signatures.
func (cs *CompiledSeries) Len() int { return len(cs.Sigs) }

// SimCCompiled is Equation 3 over two compiled signatures. It is
// bit-identical to SimC on the corresponding raw signatures and allocates
// nothing.
func SimCCompiled(a, b *Compiled) float64 {
	if !a.OK || !b.OK || emd.MassMismatch(a.Mass, b.Mass) {
		return 0
	}
	return emd.Similarity(emd.Distance1DSorted(a.V, a.W, b.V, b.W, a.Mass/b.Mass))
}

// kjPair is one above-threshold signature pair awaiting greedy matching.
type kjPair struct {
	i, j int
	sim  float64
}

// pairHeap orders pairs by (sim desc, i asc, j asc) — the κJ greedy-matching
// order. The tie-break makes the order total, so any sorting algorithm (and
// any Go version) produces the same matching.
type pairHeap []kjPair

func (p *pairHeap) Len() int { return len(*p) }
func (p *pairHeap) Less(a, b int) bool {
	s := *p
	if s[a].sim != s[b].sim {
		return s[a].sim > s[b].sim
	}
	if s[a].i != s[b].i {
		return s[a].i < s[b].i
	}
	return s[a].j < s[b].j
}
func (p *pairHeap) Swap(a, b int) {
	s := *p
	s[a], s[b] = s[b], s[a]
}

// KJScratch holds the buffers one κJ evaluation needs — candidate pairs and
// the matched-row/column marks — and the centroid cut of its threshold. A
// query's refinement reuses one scratch across every candidate it scores;
// after the buffers have grown to the workload's high-water mark, KJCancelCompiled performs no heap
// allocation at all. A scratch must never be shared between concurrently
// running evaluations.
type KJScratch struct {
	pairs pairHeap
	usedI []bool
	usedJ []bool
	best  []float64 // the κJ bounds' per-row bounds (query signatures that can match)

	cutFor, cut float64 // centroidCut(cutFor); cutFor is 0 until the first call
}

// centroidCut is centroidCut(t) for a threshold t > 0, computed once per
// threshold: every bound and kernel a scratch serves shares it.
func (sc *KJScratch) centroidCut(t float64) float64 {
	if sc.cutFor != t {
		sc.cutFor, sc.cut = t, centroidCut(t)
	}
	return sc.cut
}

// grow readies the scratch for an s1×s2 evaluation.
func (sc *KJScratch) grow(n1, n2 int) {
	sc.pairs = sc.pairs[:0]
	sc.usedI = growBools(sc.usedI, n1)
	sc.usedJ = growBools(sc.usedJ, n2)
}

func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// KJCompiled is KJ (Equation 4) over compiled series. It is bit-identical to
// KJ on the corresponding raw series.
func KJCompiled(s1, s2 *CompiledSeries, matchThreshold float64) float64 {
	v, _ := KJCancelCompiled(s1, s2, matchThreshold, nil, nil)
	return v
}

// KJCancelCompiled is KJ over compiled series with cooperative
// cancellation, computed through the zero-allocation merge EMD kernel.
// scratch supplies the pair/match buffers; nil falls back to a private
// allocation (convenience paths — hot loops pass a per-worker scratch).
// cancelled, when non-nil, is polled between EMD evaluations; a true return
// abandons the computation and the second result reports false.
//
// Results are bit-identical to KJ on the corresponding raw series: the same
// kernel arithmetic and the same (sim desc, i asc, j asc) greedy matching
// order; the pair filter (centroid, then quantile sketch, both read from the
// series' Sketches) only ever skips the EMD of a pair that could not have
// reached the threshold.
func KJCancelCompiled(s1, s2 *CompiledSeries, matchThreshold float64, cancelled func() bool, scratch *KJScratch) (float64, bool) {
	if s1 == nil || s2 == nil || len(s1.Sigs) == 0 || len(s2.Sigs) == 0 {
		return 0, true
	}
	if scratch == nil {
		scratch = &KJScratch{}
	}
	scratch.grow(len(s1.Sigs), len(s2.Sigs))
	var cut float64
	if matchThreshold > 0 {
		cut = scratch.centroidCut(matchThreshold)
	}
	for i := range s1.Sigs {
		for j := range s2.Sigs {
			if cancelled != nil && cancelled() {
				return 0, false
			}
			if matchThreshold > 0 {
				if !pairCanMatch(&s1.Sketches[i], &s2.Sketches[j], s1.Sigs[i].Mass, matchThreshold, cut) {
					continue
				}
			}
			if sim := SimCCompiled(&s1.Sigs[i], &s2.Sigs[j]); sim >= matchThreshold {
				scratch.pairs = append(scratch.pairs, kjPair{i, j, sim})
			}
		}
	}
	// Greedy maximum matching by similarity, ties broken (i asc, j asc).
	sort.Sort(&scratch.pairs)
	var num float64
	matched := 0
	for _, p := range scratch.pairs {
		if scratch.usedI[p.i] || scratch.usedJ[p.j] {
			continue
		}
		scratch.usedI[p.i] = true
		scratch.usedJ[p.j] = true
		num += p.sim
		matched++
	}
	union := float64(len(s1.Sigs) + len(s2.Sigs) - matched)
	if union <= 0 {
		return 0, true
	}
	return num / union, true
}

// KJUpperBound bounds KJCompiled(s1, s2, matchThreshold) from above without
// running a single EMD, reading only s2, the stored series' Sketches. Every
// matched pair (i, j) contributes SimC ≤ its sketch bound, so best[i], the
// largest surviving pair bound in row i, bounds whatever query signature i is
// matched to; matchBound combines the rows. A row's largest pair bound is
// sketchBound at the least sketch gap among the pairs that pass the centroid
// cut (sketchBound is monotone), so each row divides once and every value is
// bit for bit the pair-by-pair maximum. The row loop has no data-dependent
// branch, so loads of the stored sketches do not wait on mispredictions: a
// rejected pair's gap becomes +Inf and the least is kept on bit patterns,
// whose unsigned order is the float order for non-negative gaps and puts NaN
// last. It is never below the kernel's value, so a candidate whose bound
// cannot reach the running top-K is safely skipped.
// KJEnvelopeBound is the O(n₁) bound refinement computes first; this one is
// the tighter bound it falls back to for candidates the cheap one keeps.
func KJUpperBound(s1 *CompiledSeries, s2 []Sketch, matchThreshold float64, scratch *KJScratch) float64 {
	if s1 == nil || len(s1.Sigs) == 0 || len(s2) == 0 {
		return 0
	}
	if matchThreshold <= 0 {
		return 1 // no pair is filtered; κJ ≤ 1 is all that holds
	}
	if scratch == nil {
		scratch = &KJScratch{}
	}
	cut := scratch.centroidCut(matchThreshold)
	const none = 0x7ff0000000000000 // the bits of +Inf: no pair in the row
	best := scratch.best[:0]
	for i := range s1.Sketches {
		a := &s1.Sketches[i]
		least := uint64(none)
		for j := range s2 {
			b := &s2[j]
			d := math.Float64bits(sketchSum(a, b))
			if math.Abs(a.Mean-b.Mean) >= cut {
				d = none
			}
			if d < least {
				least = d
			}
		}
		// With no pair left the row bound is 0, or NaN for an invalid query
		// signature; neither reaches the threshold.
		if row := sketchBound(math.Float64frombits(least), s1.Sigs[i].Mass); row >= matchThreshold {
			best = append(best, row)
		}
	}
	scratch.best = best
	return matchBound(best, len(s1.Sigs), len(s2))
}

// KJEnvelopeBound bounds KJUpperBound(s1, s2, matchThreshold) from above in
// O(n₁), reading only e, s2's Envelope. A pair's sketch distance is
// (Mass₁/SketchBins)·Σ|Q₁−Q₂| ≥ Mass₁·|ΣQ₁−ΣQ₂|/SketchBins = Mass₁·|c₁−c₂|
// (Jensen), with c the centroid Mean/Mass, and c₂ lies in the envelope
// [e.Lo, e.Hi], so with d the distance from c₁ to it every pair bound in row
// i is at most (1+boundSlack)/(1+Mass₁·d). The rounding gap between the
// sketch's centroid and Mean/Mass is absorbed by centroidMargin: the stored
// side's is built into the envelope, the query side's is taken off d. A row
// below matchThreshold has no surviving pair and is dropped, as in
// KJUpperBound; an invalid query signature has none either. Each kept row is
// then at least its KJUpperBound row, and matchBound grows with every row,
// so this is never below KJUpperBound — and so never below κJ.
func KJEnvelopeBound(s1 *CompiledSeries, e Envelope, matchThreshold float64, scratch *KJScratch) float64 {
	if s1 == nil || len(s1.Sigs) == 0 || e.N <= 0 {
		return 0
	}
	if matchThreshold <= 0 {
		return 1
	}
	if e.Lo > e.Hi {
		return 0 // no OK stored signature: every pair is filtered
	}
	if scratch == nil {
		scratch = &KJScratch{}
	}
	best := scratch.best[:0]
	for i := range s1.Sigs {
		a, sk := &s1.Sigs[i], &s1.Sketches[i]
		if !a.OK {
			continue
		}
		c := sk.Mean / a.Mass
		row := 1 + boundSlack
		if d := max(e.Lo-c, c-e.Hi) - sk.centroidMargin(); d > 0 {
			row /= 1 + a.Mass*d
		}
		if row >= matchThreshold {
			best = append(best, row)
		}
	}
	scratch.best = best
	return matchBound(best, len(s1.Sigs), e.N)
}

// matchBound combines per-row bounds into a κJ bound. A query signature is
// matched at most once, so m matched pairs give at most
// (Σ of the m largest rows) / (n₁+n₂−m). That grows with m, so the bound
// takes every row — at most one per stored signature. It reorders rows.
func matchBound(rows []float64, n1, n2 int) float64 {
	if extra := len(rows) - n2; extra > 0 {
		slices.Sort(rows)
		rows = rows[extra:]
	}
	var sum float64
	for _, ub := range rows {
		sum += ub
	}
	return sum / float64(n1+n2-len(rows))
}
