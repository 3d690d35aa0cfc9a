package signature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSignature(rng *rand.Rand, n int) Signature {
	sig := Signature{Cuboids: make([]Cuboid, n)}
	var mass float64
	for i := range sig.Cuboids {
		sig.Cuboids[i] = Cuboid{V: rng.NormFloat64(), Mu: 0.05 + rng.Float64()}
		mass += sig.Cuboids[i].Mu
	}
	for i := range sig.Cuboids {
		sig.Cuboids[i].Mu /= mass
	}
	return sig
}

func TestCompileBasics(t *testing.T) {
	sig := Signature{Cuboids: []Cuboid{{V: 0.5, Mu: 0.25}, {V: -0.2, Mu: 0.75}}}
	c := Compile(sig)
	if !c.OK {
		t.Fatal("valid signature compiled to !OK")
	}
	if c.Mass != sig.TotalMass() {
		t.Errorf("Mass = %v, want %v", c.Mass, sig.TotalMass())
	}
	if c.Mean != sig.Mean() {
		t.Errorf("Mean = %v, want %v", c.Mean, sig.Mean())
	}
	if c.V[0] != -0.2 || c.V[1] != 0.5 {
		t.Errorf("values not sorted: %v", c.V)
	}
	if c.W[0] != 0.75 || c.W[1] != 0.25 {
		t.Errorf("weights not aligned to sorted values: %v", c.W)
	}

	if Compile(Signature{}).OK {
		t.Error("empty signature compiled to OK")
	}
	if Compile(Signature{Cuboids: []Cuboid{{V: 1, Mu: -1}}}).OK {
		t.Error("negative weight compiled to OK")
	}
	if Compile(Signature{Cuboids: []Cuboid{{V: 1, Mu: 0}}}).OK {
		t.Error("zero mass compiled to OK")
	}
}

// The compiled SimC must be bit-identical to the uncompiled SimC — it is the
// same kernel fed the same stable-sorted points, so not even the last ULP may
// move.
func TestSimCCompiledMatchesSimC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSignature(rng, 1+rng.Intn(12))
		b := randomSignature(rng, 1+rng.Intn(12))
		ca, cb := Compile(a), Compile(b)
		return SimCCompiled(&ca, &cb) == SimC(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Degenerate signatures must agree with the uncompiled path too (both report
// relevance 0 rather than erroring).
func TestSimCCompiledDegenerate(t *testing.T) {
	good := Compile(Signature{Cuboids: []Cuboid{{V: 1, Mu: 1}}})
	for name, bad := range map[string]Signature{
		"empty":    {},
		"negative": {Cuboids: []Cuboid{{V: 1, Mu: -1}}},
		"zeromass": {Cuboids: []Cuboid{{V: 1, Mu: 0}}},
	} {
		cb := Compile(bad)
		if got := SimCCompiled(&good, &cb); got != 0 {
			t.Errorf("%s: compiled = %g, want 0", name, got)
		}
		if got := SimC(Signature{Cuboids: []Cuboid{{V: 1, Mu: 1}}}, bad); got != 0 {
			t.Errorf("%s: uncompiled = %g, want 0", name, got)
		}
	}
	// Mass mismatch beyond tolerance → 0 on both paths.
	heavy := Compile(Signature{Cuboids: []Cuboid{{V: 1, Mu: 2}}})
	if got := SimCCompiled(&good, &heavy); got != 0 {
		t.Errorf("mass mismatch: compiled = %g, want 0", got)
	}
}

// κJ over compiled series must be bit-identical to κJ over raw series, on
// real extracted signatures and at every threshold (0 disables the
// lower-bound filter, exercising the full pair loop).
func TestKJCompiledMatchesKJ(t *testing.T) {
	opts := DefaultOptions()
	var series []Series
	for topic := 0; topic < 4; topic++ {
		series = append(series, Extract(synth(topic, int64(topic+1)), opts))
	}
	for _, threshold := range []float64{0, 0.3, DefaultMatchThreshold, 0.9} {
		for i := range series {
			for j := range series {
				want := KJ(series[i], series[j], threshold)
				got := KJCompiled(CompileSeries(series[i]), CompileSeries(series[j]), threshold)
				if got != want {
					t.Fatalf("threshold %g, pair (%d,%d): compiled %v != uncompiled %v", threshold, i, j, got, want)
				}
			}
		}
	}
}

// Satellite regression: greedy matching must break equal-SimC ties by
// (i asc, j asc) so κJ is a pure function of the input, stable across sort
// algorithms and Go versions. The fixture has an exact tie whose resolution
// changes the final value: s1 = {X=-d, Y=+d}, s2 = {Z=0, W=10}. Both X and Y
// are exactly d from Z (tied sim), and whichever of them loses the tie is
// matched with the far-away W — X losing and Y losing give different sums.
func TestKJTieBreakDeterministic(t *testing.T) {
	const d = 0.25
	point := func(v float64) Signature {
		return Signature{Cuboids: []Cuboid{{V: v, Mu: 1}}}
	}
	s1 := Series{point(-d), point(+d)}
	s2 := Series{point(0), point(10)}

	simTie := 1 / (1 + d) // X↔Z and Y↔Z, exactly equal
	if SimC(s1[0], s2[0]) != simTie || SimC(s1[1], s2[0]) != simTie {
		t.Fatal("fixture does not produce an exact tie")
	}
	// Tie goes to i=0 (X matches Z); Y falls through to W at distance 10−d.
	// Union = |S1|+|S2|−matched = 2+2−2 = 2.
	want := (simTie + 1/(1+10-d)) / 2

	for run := 0; run < 50; run++ {
		if got := KJ(s1, s2, 0); got != want {
			t.Fatalf("run %d: κJ = %v, want %v (tie resolved against i asc)", run, got, want)
		}
		if got := KJCompiled(CompileSeries(s1), CompileSeries(s2), 0); got != want {
			t.Fatalf("run %d: compiled κJ = %v, want %v", run, got, want)
		}
	}
}

// The compiled κJ with a caller-owned scratch must allocate nothing in steady
// state — this is the per-candidate refinement step.
func TestKJCancelCompiledZeroAlloc(t *testing.T) {
	opts := DefaultOptions()
	a := CompileSeries(Extract(synth(1, 1), opts))
	b := CompileSeries(Extract(synth(2, 2), opts))
	var scratch KJScratch
	// Warm the scratch to its high-water mark for this pair.
	if v, ok := KJCancelCompiled(a, b, DefaultMatchThreshold, nil, &scratch); !ok || math.IsNaN(v) {
		t.Fatal("warm-up failed")
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		v, _ := KJCancelCompiled(a, b, DefaultMatchThreshold, nil, &scratch)
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("KJCancelCompiled allocates %.1f/op with scratch, want 0", allocs)
	}
	// Threshold 0 takes the no-filter path with many more pairs; still 0.
	KJCancelCompiled(a, b, 0, nil, &scratch)
	allocs = testing.AllocsPerRun(100, func() {
		v, _ := KJCancelCompiled(a, b, 0, nil, &scratch)
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("KJCancelCompiled (threshold 0) allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

// Cancellation semantics of the compiled path: a cancelled computation
// reports incomplete, nil series behave like empty ones.
func TestKJCancelCompiledEdges(t *testing.T) {
	opts := DefaultOptions()
	a := CompileSeries(Extract(synth(1, 1), opts))
	if v, ok := KJCancelCompiled(nil, a, 0.5, nil, nil); v != 0 || !ok {
		t.Errorf("nil series: (%g, %v), want (0, true)", v, ok)
	}
	if v, ok := KJCancelCompiled(a, &CompiledSeries{}, 0.5, nil, nil); v != 0 || !ok {
		t.Errorf("empty series: (%g, %v), want (0, true)", v, ok)
	}
	if _, ok := KJCancelCompiled(a, a, 0.5, func() bool { return true }, nil); ok {
		t.Error("cancelled computation reported complete")
	}
}

func BenchmarkKJCompiled(b *testing.B) {
	opts := DefaultOptions()
	s1 := CompileSeries(Extract(synth(1, 1), opts))
	s2 := CompileSeries(Extract(synth(2, 2), opts))
	var scratch KJScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KJCancelCompiled(s1, s2, DefaultMatchThreshold, nil, &scratch)
	}
}
