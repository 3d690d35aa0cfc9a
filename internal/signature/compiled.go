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
// of the signature), weights aligned, and the quantities every comparison
// re-derived — total mass, centroid mean, validity — computed once.
//
// Mean and Mass are accumulated in original cuboid order, exactly as
// Signature.Mean and Signature.TotalMass do, so the compiled path is
// bit-identical to the uncompiled one.
type Compiled struct {
	V, W []float64 // cuboid values/weights, stable-sorted by value
	Mean float64   // Σ v·μ — the centroid the κJ lower-bound filter compares
	Mass float64   // Σ μ (1 up to floating point for extracted signatures)
	OK   bool      // non-empty, no negative weights, mass above solver tolerance

	// Q is the quantile sketch: Q[b] is the mean cuboid value over the b-th
	// of SketchBins equal slices of the signature's mass, in value order.
	// 1-D EMD is ∫|Q₁(u)−Q₂(u)|du over the quantile functions, and on each
	// slice |∫(Q₁−Q₂)| ≤ ∫|Q₁−Q₂| (Jensen), so (Mass/SketchBins)·Σ|Q₁[b]−Q₂[b]|
	// never exceeds Distance1DSorted. Zero unless OK.
	Q [SketchBins]float64
}

// MaxCuboids bounds the cuboids of one signature that can be compiled: a
// CompiledSeries keeps each sorted cuboid's extraction-order position as a
// uint16. Extraction yields at most Grid² cuboids per signature (one per
// merged block region), so every Grid up to MaxGrid stays within it.
const MaxCuboids = 1 << 16

// MaxGrid is the largest Options.Grid whose signatures always compile.
const MaxGrid = 256

// Compile builds the compiled form of one signature. It panics if the
// signature has more than MaxCuboids cuboids.
func Compile(s Signature) Compiled {
	return compile(s, make([]uint16, len(s.Cuboids)))
}

// compile is Compile recording the sort permutation in perm (len(s.Cuboids)
// long): V[k] and W[k] are cuboid perm[k] of s. Sorting the indices and then
// gathering runs the same stable insertion-block and symMerge passes as
// sorting the value and weight arrays in place (emd.SortByValue), with the
// same comparisons, so the result is identical bit for bit — ties, ±0 and
// NaN included — while each move shifts two bytes instead of two float64s.
func compile(s Signature, perm []uint16) Compiled {
	n := len(s.Cuboids)
	if n > MaxCuboids {
		panic(fmt.Sprintf("signature: %d cuboids exceed MaxCuboids (%d)", n, MaxCuboids))
	}
	c := Compiled{V: make([]float64, n), W: make([]float64, n)}
	for i, cb := range s.Cuboids {
		c.W[i] = cb.Mu
		c.Mean += cb.V * cb.Mu
		perm[i] = uint16(i)
	}
	c.Mass, c.OK = emd.ValidateWeights(c.W)
	if n == 0 {
		c.OK = false
	}
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
	if c.OK {
		c.sketch()
	}
	return c
}

// sketch fills Q from the sorted cuboids: walk the mass in value order,
// cutting a cuboid's weight wherever a bin boundary falls inside it.
func (c *Compiled) sketch() {
	binMass := c.Mass / SketchBins
	b, room, acc, top := 0, binMass, 0.0, 0.0
	for i, w := range c.W {
		if w > 0 {
			top = c.V[i]
		}
		for w > room && b < SketchBins-1 {
			c.Q[b] = (acc + c.V[i]*room) / binMass
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
	c.Q[b] = acc / binMass
	for b++; b < SketchBins; b++ {
		c.Q[b] = top
	}
}

// sketchDistance is the quantile-sketch lower bound on the EMD SimCCompiled
// would compute for the pair (set-2 weights scaled to a's mass, which leaves
// b's bin means unchanged). Both signatures must be OK.
func sketchDistance(a, b *Compiled) float64 {
	var d float64
	for k := range a.Q {
		d += math.Abs(a.Q[k] - b.Q[k])
	}
	return d * a.Mass / SketchBins
}

// pairBound is the one filter the κJ kernel and its upper bound share: an
// upper bound on SimC for a pair that can still reach matchThreshold (> 0),
// or false when it provably cannot — the centroid test of [35] first (two
// loads), then the sketch. A pair rejected here has SimC < matchThreshold, so
// skipping its EMD changes no matching.
func pairBound(a, b *Compiled, matchThreshold float64) (float64, bool) {
	if 1/(1+math.Abs(a.Mean-b.Mean)) < matchThreshold {
		return 0, false
	}
	if !a.OK || !b.OK {
		return 0, false // SimC is 0 for an invalid signature
	}
	ub := (1 + boundSlack) / (1 + sketchDistance(a, b))
	return ub, ub >= matchThreshold
}

// CompiledSeries is a signature series compiled for refinement: one Compiled
// per q-gram signature. It is immutable after construction and safe to share
// across any number of concurrent readers; views keep one per stored video,
// and it is the only form of a stored video's content they keep — Series
// rebuilds the raw series from it exactly.
type CompiledSeries struct {
	Sigs []Compiled

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
	cs := &CompiledSeries{Sigs: make([]Compiled, len(s)), perm: make([]uint16, n)}
	o := 0
	for i, sig := range s {
		m := len(sig.Cuboids)
		cs.Sigs[i] = compile(sig, cs.perm[o:o+m:o+m])
		o += m
	}
	return cs
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
		if c := &cs.Sigs[i]; c.OK {
			m := c.centroidMargin()
			e.Lo = min(e.Lo, c.Mean/c.Mass-m)
			e.Hi = max(e.Hi, c.Mean/c.Mass+m)
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
func (c *Compiled) centroidMargin() float64 {
	return boundSlack * (1 + max(math.Abs(c.Q[0]), math.Abs(c.Q[SketchBins-1])))
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
// the matched-row/column marks. A refine worker allocates one scratch and
// reuses it across every candidate it scores; after the buffers have grown to
// the workload's high-water mark, KJCancelCompiled performs no heap
// allocation at all. A scratch must never be shared between concurrently
// running evaluations.
type KJScratch struct {
	pairs pairHeap
	usedI []bool
	usedJ []bool
	best  []float64 // the κJ bounds' per-row bounds (query signatures that can match)
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
// order; the pair filter (centroid, then quantile sketch) only ever
// skips the EMD of a pair that could not have reached the threshold.
func KJCancelCompiled(s1, s2 *CompiledSeries, matchThreshold float64, cancelled func() bool, scratch *KJScratch) (float64, bool) {
	if s1 == nil || s2 == nil || len(s1.Sigs) == 0 || len(s2.Sigs) == 0 {
		return 0, true
	}
	if scratch == nil {
		scratch = &KJScratch{}
	}
	scratch.grow(len(s1.Sigs), len(s2.Sigs))
	for i := range s1.Sigs {
		for j := range s2.Sigs {
			if cancelled != nil && cancelled() {
				return 0, false
			}
			if matchThreshold > 0 {
				if _, ok := pairBound(&s1.Sigs[i], &s2.Sigs[j], matchThreshold); !ok {
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
// running a single EMD. Every matched pair (i, j) contributes SimC ≤ its
// pairBound, so best[i], the largest surviving pair bound in row i, bounds
// whatever query signature i is matched to; matchBound combines the rows.
// It costs n₁ × n₂ pairBound tests and is never below the kernel's value, so
// a candidate whose bound cannot reach the running top-K is safely skipped.
// KJEnvelopeBound is the O(n₁) bound refinement computes first; this one is
// the tighter bound it falls back to for candidates the cheap one keeps.
func KJUpperBound(s1, s2 *CompiledSeries, matchThreshold float64, scratch *KJScratch) float64 {
	if s1 == nil || s2 == nil || len(s1.Sigs) == 0 || len(s2.Sigs) == 0 {
		return 0
	}
	if matchThreshold <= 0 {
		return 1 // no pair is filtered; κJ ≤ 1 is all that holds
	}
	if scratch == nil {
		scratch = &KJScratch{}
	}
	best := scratch.best[:0]
	for i := range s1.Sigs {
		var row float64
		for j := range s2.Sigs {
			if ub, ok := pairBound(&s1.Sigs[i], &s2.Sigs[j], matchThreshold); ok && ub > row {
				row = ub
			}
		}
		if row > 0 {
			best = append(best, row)
		}
	}
	scratch.best = best
	return matchBound(best, len(s1.Sigs), len(s2.Sigs))
}

// KJEnvelopeBound bounds KJUpperBound(s1, s2, matchThreshold) from above in
// O(n₁), reading only e, s2's Envelope. pairBound's sketch distance is
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
		a := &s1.Sigs[i]
		if !a.OK {
			continue
		}
		c := a.Mean / a.Mass
		row := 1 + boundSlack
		if d := max(e.Lo-c, c-e.Hi) - a.centroidMargin(); d > 0 {
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
