package signature

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"videorec/internal/emd"
)

// kjCentroidOnly is the compiled κJ kernel as it stood before the quantile
// sketch: the centroid test of [35] and nothing else in front of the EMD. It
// is the filter-free reference the sketch filter must reproduce bit for bit.
func kjCentroidOnly(s1, s2 *CompiledSeries, matchThreshold float64) float64 {
	if s1 == nil || s2 == nil || len(s1.Sigs) == 0 || len(s2.Sigs) == 0 {
		return 0
	}
	var pairs pairHeap
	for i := range s1.Sigs {
		for j := range s2.Sigs {
			if matchThreshold > 0 && 1/(1+math.Abs(s1.Sketches[i].Mean-s2.Sketches[j].Mean)) < matchThreshold {
				continue
			}
			if sim := SimCCompiled(&s1.Sigs[i], &s2.Sigs[j]); sim >= matchThreshold {
				pairs = append(pairs, kjPair{i, j, sim})
			}
		}
	}
	sort.Sort(&pairs)
	usedI := make([]bool, len(s1.Sigs))
	usedJ := make([]bool, len(s2.Sigs))
	var num float64
	matched := 0
	for _, p := range pairs {
		if usedI[p.i] || usedJ[p.j] {
			continue
		}
		usedI[p.i], usedJ[p.j] = true, true
		num += p.sim
		matched++
	}
	return num / float64(len(s1.Sigs)+len(s2.Sigs)-matched)
}

// adversarialSignature draws from the shapes that sit on the sketch's edges:
// a single cuboid, all values equal, weights that put a bin boundary exactly
// on a cuboid boundary, zero-weight cuboids at either end, invalid weights,
// masses off 1 inside and outside the solver's tolerance, and large offsets.
func adversarialSignature(rng *rand.Rand) Signature {
	n := 1 + rng.Intn(40)
	switch rng.Intn(10) {
	case 0:
		return Signature{Cuboids: []Cuboid{{V: rng.NormFloat64() * 8, Mu: 1}}}
	case 1: // equal values
		v := math.Round(rng.NormFloat64() * 4)
		sig := Signature{Cuboids: make([]Cuboid, n)}
		for i := range sig.Cuboids {
			sig.Cuboids[i] = Cuboid{V: v, Mu: 1 / float64(n)}
		}
		return sig
	case 2: // equal weights on a grid of 64 blocks: bin edges fall on cuboid edges
		sig := Signature{Cuboids: make([]Cuboid, 8*(1+rng.Intn(4)))}
		for i := range sig.Cuboids {
			sig.Cuboids[i] = Cuboid{V: math.Round(rng.NormFloat64()*6) / 4, Mu: 1 / float64(len(sig.Cuboids))}
		}
		return sig
	case 3: // zero-weight cuboids far outside the support
		sig := randomSignature(rng, n)
		sig.Cuboids = append(sig.Cuboids, Cuboid{V: 1e12, Mu: 0}, Cuboid{V: -1e12, Mu: 0})
		return sig
	case 4: // invalid: negative weight, zero mass or empty
		switch rng.Intn(3) {
		case 0:
			sig := randomSignature(rng, n)
			sig.Cuboids[rng.Intn(n)].Mu = -0.1
			return sig
		case 1:
			return Signature{Cuboids: []Cuboid{{V: 1, Mu: 0}}}
		}
		return Signature{}
	case 5: // mass mismatch inside the tolerance
		sig := randomSignature(rng, n)
		f := 1 + (rng.Float64()-0.5)*1e-6
		for i := range sig.Cuboids {
			sig.Cuboids[i].Mu *= f
		}
		return sig
	case 6: // mass mismatch outside the tolerance (SimC = 0 against mass 1)
		sig := randomSignature(rng, n)
		f := []float64{0.5, 2, 1 + 1e-5}[rng.Intn(3)]
		for i := range sig.Cuboids {
			sig.Cuboids[i].Mu *= f
		}
		return sig
	case 7: // values at the top of the cuboid range
		sig := randomSignature(rng, n)
		for i := range sig.Cuboids {
			sig.Cuboids[i].V = 255 - math.Abs(sig.Cuboids[i].V)
		}
		return sig
	}
	sig := randomSignature(rng, n)
	for i := range sig.Cuboids {
		sig.Cuboids[i].V *= 4
	}
	return sig
}

// shifted returns sig moved by d: the EMD to the original is exactly d·mass
// and so is the sketch bound — the pair sits on the filter's knife edge when
// d = 1/threshold − 1.
func shifted(sig Signature, d float64) Signature {
	out := Signature{Cuboids: append([]Cuboid(nil), sig.Cuboids...)}
	for i := range out.Cuboids {
		out.Cuboids[i].V += d
	}
	return out
}

// Over random and adversarial pairs: the sketch distance never exceeds the
// EMD the kernel computes, and whenever pairCanMatch rejects a pair its SimC
// is below the threshold, and the sketch bound of a pair it keeps is not —
// the facts that make the filter exact and the bounds sound.
func TestPropertySketchBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	thresholds := []float64{0.05, 0.3, 0.5, 0.8, 0.99, 1}
	const pairs = 120000
	rejected, reachable := 0, 0
	for n := 0; n < pairs; n++ {
		sa := adversarialSignature(rng)
		var sb Signature
		switch rng.Intn(4) {
		case 0:
			th := thresholds[rng.Intn(len(thresholds))]
			sb = shifted(sa, 1/th-1)
		case 1:
			sb = shifted(sa, rng.NormFloat64())
		default:
			sb = adversarialSignature(rng)
		}
		cs := CompileSeries(Series{sa, sb})
		a, b := &cs.Sigs[0], &cs.Sigs[1]
		ka, kb := &cs.Sketches[0], &cs.Sketches[1]
		sim := SimCCompiled(a, b)
		if a.OK && b.OK && !emd.MassMismatch(a.Mass, b.Mass) {
			d := emd.Distance1DSorted(a.V, a.W, b.V, b.W, a.Mass/b.Mass)
			if lb := sketchSum(ka, kb) * a.Mass / SketchBins; lb > d*(1+1e-12)+1e-12 {
				t.Fatalf("pair %d: sketch distance %v exceeds EMD %v\na=%+v\nb=%+v", n, lb, d, sa, sb)
			}
		}
		for _, th := range thresholds {
			ub := sketchBound(sketchSum(ka, kb), a.Mass)
			if sim >= th {
				reachable++
			}
			if !pairCanMatch(ka, kb, a.Mass, th, centroidCut(th)) {
				rejected++
				if sim >= th && 1/(1+math.Abs(ka.Mean-kb.Mean)) >= th {
					t.Fatalf("pair %d, threshold %v: sketch rejected a pair with SimC %v\na=%+v\nb=%+v", n, th, sim, sa, sb)
				}
			} else if ub < sim {
				t.Fatalf("pair %d, threshold %v: bound %v below SimC %v", n, th, ub, sim)
			}
		}
	}
	if rejected == 0 || reachable == 0 {
		t.Fatalf("degenerate sample: %d rejected, %d reachable", rejected, reachable)
	}
}

func adversarialSeries(rng *rand.Rand, pool []Signature) Series {
	s := make(Series, rng.Intn(12))
	for i := range s {
		switch {
		case len(pool) > 0 && rng.Intn(3) == 0: // near-duplicate of an earlier signature
			s[i] = shifted(pool[rng.Intn(len(pool))], rng.NormFloat64()*0.2)
		default:
			s[i] = adversarialSignature(rng)
		}
	}
	return s
}

// The filtered kernel equals the filter-free reference bit for bit, and
// KJEnvelopeBound ≥ KJUpperBound ≥ it — over series mixing near-duplicates,
// knife-edge shifts, invalid and mass-mismatched signatures, empty series
// included. The envelope bound must also prune somewhere, or the ladder in
// front of KJUpperBound buys nothing.
func TestPropertyKJFilterAndUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var scratch KJScratch
	pairs, positive, envPruned := 0, 0, 0
	for run := 0; run < 4000; run++ {
		r1 := adversarialSeries(rng, nil)
		r2 := adversarialSeries(rng, r1)
		s1, s2 := CompileSeries(r1), CompileSeries(r2)
		pairs += len(r1) * len(r2)
		for _, th := range []float64{-1, 0, 0.3, 0.5, 0.9, 1} {
			want := kjCentroidOnly(s1, s2, th)
			got, ok := KJCancelCompiled(s1, s2, th, nil, &scratch)
			if !ok || got != want {
				t.Fatalf("run %d, threshold %v: filtered κJ = %v, reference %v", run, th, got, want)
			}
			ub := KJUpperBound(s1, s2.Sketches, th, &scratch)
			if ub < got {
				t.Fatalf("run %d, threshold %v: upper bound %v below κJ %v", run, th, ub, got)
			}
			env := KJEnvelopeBound(s1, s2.Envelope(), th, &scratch)
			if env < ub {
				t.Fatalf("run %d, threshold %v: envelope bound %v below upper bound %v\ns1=%+v\ns2=%+v", run, th, env, ub, r1, r2)
			}
			if got > 0 {
				positive++
			}
			if env < 1 && len(r1) > 0 && len(r2) > 0 {
				envPruned++
			}
		}
	}
	if pairs < 100000 || positive < 1000 || envPruned < 1000 {
		t.Fatalf("sample too thin: %d signature pairs, %d positive κJ, %d envelope bounds below 1", pairs, positive, envPruned)
	}
}

// The envelope bound's edges, each against KJUpperBound and κJ: masses off 1
// (the row bound scales the centroid gap by the query signature's mass), a
// stored series with no OK signature, invalid query signatures, empty series,
// a non-positive threshold, and a query centroid exactly on the envelope.
func TestKJEnvelopeBoundEdges(t *testing.T) {
	one := func(v, mu float64) Signature { return Signature{Cuboids: []Cuboid{{V: v, Mu: mu}}} }
	invalid := Signature{Cuboids: []Cuboid{{V: 1, Mu: -1}}}
	stored := Series{one(-2, 1), one(3, 1), invalid}
	cs := CompileSeries(stored)
	for _, tc := range []struct {
		name   string
		q, s   Series
		th     float64
		want   float64 // -1: only the ordering is checked
		approx bool
	}{
		// Centroid gap 1 at mass 2 and 0.5: the sketch distance is Mass·1, so
		// both bounds are (1+slack)/(1+Mass) and the envelope is exact.
		{"mass 2", Series{one(0, 2)}, Series{one(1, 2)}, 0.3, 1.0 / 3, true},
		{"mass 0.5", Series{one(0, 0.5)}, Series{one(1, 0.5)}, 0.5, 2.0 / 3, true},
		{"mass 2 below threshold", Series{one(0, 2)}, Series{one(1, 2)}, 0.5, 0, false},
		{"no OK stored signature", Series{one(0, 1)}, Series{invalid, {}}, 0.5, 0, false},
		{"invalid query signatures", Series{invalid, {}}, stored, 0.5, 0, false},
		{"one valid query signature", Series{invalid, one(0, 1)}, stored, 0.3, -1, false},
		{"empty query", nil, stored, 0.5, 0, false},
		{"empty stored", Series{one(0, 1)}, nil, 0.5, 0, false},
		{"threshold 0", Series{one(0, 1)}, Series{invalid}, 0, 1, false},
		{"threshold -1", Series{one(0, 1)}, stored, -1, 1, false},
		{"on lo", Series{one(cs.Envelope().Lo, 1)}, stored, 0.5, -1, false},
		{"on hi", Series{one(cs.Envelope().Hi, 1)}, stored, 0.5, -1, false},
		{"outside", Series{one(40, 1)}, stored, 0.5, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s1, s2 := CompileSeries(tc.q), CompileSeries(tc.s)
			kj := KJCompiled(s1, s2, tc.th)
			ub := KJUpperBound(s1, s2.Sketches, tc.th, nil)
			env := KJEnvelopeBound(s1, s2.Envelope(), tc.th, nil)
			if env < ub || ub < kj {
				t.Fatalf("bounds out of order: envelope %v, upper %v, κJ %v", env, ub, kj)
			}
			switch {
			case tc.want < 0:
			case tc.approx && math.Abs(env-tc.want) > 1e-8:
				t.Fatalf("envelope bound %v, want ≈ %v", env, tc.want)
			case !tc.approx && env != tc.want:
				t.Fatalf("envelope bound %v, want %v", env, tc.want)
			}
		})
	}
	// On the envelope's edge the centroid gap is 0: the row is 1+boundSlack
	// and the one query signature can match one of three stored ones.
	q := CompileSeries(Series{one(cs.Envelope().Hi, 1)})
	if env, want := KJEnvelopeBound(q, cs.Envelope(), 0.5, nil), (1+boundSlack)/3; env != want {
		t.Fatalf("query centroid on hi: envelope bound %v, want %v", env, want)
	}
}

// On extracted signatures the bound must actually prune: unrelated clips get
// a bound well under a re-edit's κJ, which is what lets refinement stop.
func TestKJUpperBoundSeparates(t *testing.T) {
	opts := DefaultOptions()
	q := CompileSeries(Extract(synth(1, 1), opts))
	same := CompileSeries(Extract(synth(1, 1), opts))
	other := CompileSeries(Extract(synth(9, 2), opts))
	if ub, kj := KJUpperBound(q, same.Sketches, DefaultMatchThreshold, nil), KJCompiled(q, same, DefaultMatchThreshold); ub < kj || kj == 0 {
		t.Fatalf("identical series: bound %v, κJ %v", ub, kj)
	}
	if ub := KJUpperBound(q, other.Sketches, DefaultMatchThreshold, nil); ub >= 1 {
		t.Fatalf("unrelated series: bound %v prunes nothing", ub)
	}
}

// The bound runs once per gathered candidate and must not allocate with a
// warm scratch.
func TestKJUpperBoundZeroAlloc(t *testing.T) {
	opts := DefaultOptions()
	a := CompileSeries(Extract(synth(1, 1), opts))
	b := CompileSeries(Extract(synth(2, 2), opts))
	var scratch KJScratch
	KJUpperBound(a, b.Sketches, DefaultMatchThreshold, &scratch)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += KJUpperBound(a, b.Sketches, DefaultMatchThreshold, &scratch) }); allocs != 0 {
		t.Fatalf("KJUpperBound allocates %.1f/op with scratch, want 0", allocs)
	}
	_ = sink
}

// The cheap bound runs once per gathered candidate too, and must not
// allocate either.
func TestKJEnvelopeBoundZeroAlloc(t *testing.T) {
	opts := DefaultOptions()
	a := CompileSeries(Extract(synth(1, 1), opts))
	b := CompileSeries(Extract(synth(2, 2), opts))
	e := b.Envelope()
	var scratch KJScratch
	KJEnvelopeBound(a, e, DefaultMatchThreshold, &scratch)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += KJEnvelopeBound(a, e, DefaultMatchThreshold, &scratch) }); allocs != 0 {
		t.Fatalf("KJEnvelopeBound allocates %.1f/op with scratch, want 0", allocs)
	}
	_ = sink
}

func BenchmarkKJEnvelopeBound(b *testing.B) {
	opts := DefaultOptions()
	s1 := CompileSeries(Extract(synth(1, 1), opts))
	e := CompileSeries(Extract(synth(2, 2), opts)).Envelope()
	var scratch KJScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KJEnvelopeBound(s1, e, DefaultMatchThreshold, &scratch)
	}
}

func BenchmarkKJUpperBound(b *testing.B) {
	opts := DefaultOptions()
	s1 := CompileSeries(Extract(synth(1, 1), opts))
	s2 := CompileSeries(Extract(synth(2, 2), opts))
	var scratch KJScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KJUpperBound(s1, s2.Sketches, DefaultMatchThreshold, &scratch)
	}
}

// kjUpperBoundPairwise is KJUpperBound as it stood before the row-wise form:
// every pair's bound taken in turn — the centroid test by division, the
// validity flags, then the sketch bound — and the largest kept per row. The
// row-wise bound must equal it bit for bit.
func kjUpperBoundPairwise(s1, s2 *CompiledSeries, matchThreshold float64) float64 {
	if s1 == nil || s2 == nil || len(s1.Sigs) == 0 || len(s2.Sigs) == 0 {
		return 0
	}
	if matchThreshold <= 0 {
		return 1
	}
	var best []float64
	for i := range s1.Sigs {
		var row float64
		for j := range s2.Sigs {
			a, b := &s1.Sketches[i], &s2.Sketches[j]
			if 1/(1+math.Abs(a.Mean-b.Mean)) < matchThreshold || !s1.Sigs[i].OK || !s2.Sigs[j].OK {
				continue
			}
			var d float64
			for k := range a.Q {
				d += math.Abs(a.Q[k] - b.Q[k])
			}
			ub := (1 + boundSlack) / (1 + d*s1.Sigs[i].Mass/SketchBins)
			if ub >= matchThreshold && ub > row {
				row = ub
			}
		}
		if row > 0 {
			best = append(best, row)
		}
	}
	return matchBound(best, len(s1.Sigs), len(s2.Sigs))
}

// checkSketchBound holds one pair of series to everything the sketch column
// promises: the row-wise KJUpperBound equals the pairwise reference bit for
// bit and is never below κJ; the kernel's filtered κJ equals the
// centroid-only reference bit for bit; and for every signature pair the
// centroid cut rejects exactly what the division test rejects.
func checkSketchBound(t *testing.T, s1, s2 *CompiledSeries, th float64, scratch *KJScratch) {
	t.Helper()
	got := KJUpperBound(s1, s2.Sketches, th, scratch)
	if want := kjUpperBoundPairwise(s1, s2, th); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("threshold %v: row-wise bound %v (%#x), pairwise %v (%#x)", th, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	kj, ok := KJCancelCompiled(s1, s2, th, nil, scratch)
	if want := kjCentroidOnly(s1, s2, th); !ok || math.Float64bits(kj) != math.Float64bits(want) {
		t.Fatalf("threshold %v: filtered κJ %v, centroid-only reference %v", th, kj, want)
	}
	if got < kj {
		t.Fatalf("threshold %v: bound %v below κJ %v", th, got, kj)
	}
	cut := centroidCut(th)
	for i := range s1.Sketches {
		for j := range s2.Sketches {
			g := math.Abs(s1.Sketches[i].Mean - s2.Sketches[j].Mean)
			if far, div := g >= cut, 1/(1+g) < th; far != div {
				t.Fatalf("threshold %v, gap %v: cut %v rejects %v, division test %v", th, g, cut, far, div)
			}
		}
	}
}

// signedZeros flips a random subset of a signature's values to +0 or -0, so
// centroids and sketch bins land on both zeros.
func signedZeros(rng *rand.Rand, sig Signature) Signature {
	out := Signature{Cuboids: append([]Cuboid(nil), sig.Cuboids...)}
	for i := range out.Cuboids {
		switch rng.Intn(3) {
		case 0:
			out.Cuboids[i].V = 0
		case 1:
			out.Cuboids[i].V = math.Copysign(0, -1)
		}
	}
	return out
}

// Over adversarial series — ties, ±0, zero-weight and single-cuboid
// signatures, invalid and mass-mismatched ones, near-duplicates and empty
// series — at thresholds from below 0 to above 1.
func TestPropertySketchBoundMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var scratch KJScratch
	positive := 0
	for run := 0; run < 3000; run++ {
		r1 := adversarialSeries(rng, nil)
		r2 := adversarialSeries(rng, r1)
		for _, r := range []Series{r1, r2} {
			for i := range r {
				if rng.Intn(4) == 0 {
					r[i] = signedZeros(rng, r[i])
				}
			}
		}
		s1, s2 := CompileSeries(r1), CompileSeries(r2)
		for _, th := range []float64{-1, 0, 0.05, 0.3, DefaultMatchThreshold, 0.9, 1, 1.5} {
			checkSketchBound(t, s1, s2, th, &scratch)
			if KJUpperBound(s1, s2.Sketches, th, &scratch) > 0 && th > 0 {
				positive++
			}
		}
	}
	if positive < 1000 {
		t.Fatalf("sample too thin: %d positive bounds", positive)
	}
}

// The cut decides as the division does at its own edge, one float either
// side, and at the gaps and thresholds where rounding or special values
// could split them.
func TestCentroidCutMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	thresholds := []float64{DefaultMatchThreshold, 1, math.Nextafter(1, 0), 1 - 1e-12, 0.999999, 1e-300, 5e-324, 2, math.Inf(1), 0, -1, math.NaN()}
	for k := 0; k < 200; k++ {
		thresholds = append(thresholds, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(60)))
	}
	for _, th := range thresholds {
		cut := centroidCut(th)
		gaps := []float64{0, math.Inf(1), math.NaN(), math.MaxFloat64, 5e-324, 1, 1 / th, 1/th - 1}
		if !math.IsNaN(cut) {
			gaps = append(gaps, cut, math.Nextafter(cut, 0), math.Nextafter(cut, math.Inf(1)))
		}
		for k := 0; k < 50; k++ {
			gaps = append(gaps, rng.ExpFloat64()*(1/th))
		}
		for _, g := range gaps {
			if g < 0 {
				continue // gaps are absolute values
			}
			if far, div := g >= cut, 1/(1+g) < th; far != div {
				t.Fatalf("threshold %v, gap %v: cut %v rejects %v, division test %v", th, g, cut, far, div)
			}
		}
	}
	var sc KJScratch
	if c := sc.centroidCut(0.25); c != centroidCut(0.25) || sc.centroidCut(0.5) != centroidCut(0.5) {
		t.Fatalf("scratch cut %v does not follow the threshold", c)
	}
}

// FuzzSketchBound runs checkSketchBound on two fuzzed series (decodeSeries:
// ties, ±0, NaN and infinite values, zero and negative weights, empty and
// single-cuboid signatures) at one of a handful of thresholds.
func FuzzSketchBound(f *testing.F) {
	f.Add(uint8(0), []byte{1, 3, 20, 40, 60, 80, 100, 120}, []byte{1, 3, 21, 40, 61, 80, 100, 121})
	f.Add(uint8(1), []byte{2, 0, 2, 0, 1, 1, 0}, []byte{2, 2, 0, 1, 0, 0, 1})
	f.Add(uint8(2), []byte{1, 25, 5, 2, 5, 3, 2, 2, 2, 4}, []byte{3, 40, 7, 21, 200, 201, 8, 8, 0, 0, 100, 4})
	f.Add(uint8(3), []byte{1, 1, 30, 200}, []byte{1, 1, 31, 200})
	f.Add(uint8(4), []byte{4, 2, 2, 2, 2, 0, 16, 1, 16}, []byte{})
	thresholds := []float64{DefaultMatchThreshold, 0.3, 0.9, 1, 0.05, 1.5, 0, -1}
	f.Fuzz(func(t *testing.T, th uint8, a, b []byte) {
		s1, s2 := CompileSeries(decodeSeries(a)), CompileSeries(decodeSeries(b))
		var scratch KJScratch
		checkSketchBound(t, s1, s2, thresholds[int(th)%len(thresholds)], &scratch)
	})
}
