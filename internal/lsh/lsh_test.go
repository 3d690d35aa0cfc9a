package lsh

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"videorec/internal/emd"
)

func TestEmbedderDim(t *testing.T) {
	e := NewEmbedder(-1, 1, 4)
	if e.Dim() != 1+2+4+8 {
		t.Errorf("Dim = %d, want 15", e.Dim())
	}
}

func TestEmbedderPanicsOnEmptyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEmbedder(1, 1, 3)
}

func TestEmbedIdenticalInputsEqual(t *testing.T) {
	e := NewEmbedder(-2, 2, 5)
	v := []float64{-1, 0.5, 1.2}
	w := []float64{0.3, 0.3, 0.4}
	a := e.Embed(v, w)
	b := e.Embed(v, w)
	if L1(a, b) != 0 {
		t.Error("identical inputs embed differently")
	}
}

func TestEmbedClampsOutOfDomain(t *testing.T) {
	e := NewEmbedder(0, 1, 3)
	// Should not panic or produce NaN for out-of-domain values.
	out := e.Embed([]float64{-5, 7}, []float64{0.5, 0.5})
	for _, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("bad embedding value %g", x)
		}
	}
}

// A non-finite value clamps like an out-of-domain one: NaN to the first
// cell, ±Inf to the ends. (int(NaN) is out of every cell's range, so an
// unclamped NaN used to index the embedding at −2⁶³ and panic.)
func TestEmbedClampsNonFinite(t *testing.T) {
	e := NewEmbedder(0, 1, 3)
	w := []float64{0.5, 0.5}
	if got, want := e.Embed([]float64{math.NaN(), 1}, w), e.Embed([]float64{0, 1}, w); L1(got, want) != 0 {
		t.Errorf("NaN embeds as %v, want the domain minimum's %v", got, want)
	}
	if got, want := e.Embed([]float64{math.Inf(-1), math.Inf(1)}, w), e.Embed([]float64{-5, 7}, w); L1(got, want) != 0 {
		t.Errorf("±Inf embed as %v, want the clamped ends' %v", got, want)
	}
}

func randHist(rng *rand.Rand, n int) (v, w []float64) {
	v = make([]float64, n)
	w = make([]float64, n)
	var sum float64
	for i := range v {
		v[i] = rng.Float64()*2 - 1
		w[i] = 0.1 + rng.Float64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return v, w
}

// The embedding is useful iff L1 distance correlates with true EMD. We check
// rank correlation over random pairs rather than tight distortion bounds
// (the Indyk–Thaper guarantee is O(log n) distortion in expectation).
func TestEmbeddingCorrelatesWithEMD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewEmbedder(-1, 1, 7)
	var emds, l1s []float64
	for i := 0; i < 200; i++ {
		v1, w1 := randHist(rng, 1+rng.Intn(8))
		v2, w2 := randHist(rng, 1+rng.Intn(8))
		d, err := emd.Distance1D(v1, w1, v2, w2)
		if err != nil {
			t.Fatal(err)
		}
		emds = append(emds, d)
		l1s = append(l1s, L1(e.Embed(v1, w1), e.Embed(v2, w2)))
	}
	// Spearman rank correlation.
	rho := spearman(emds, l1s)
	if rho < 0.7 {
		t.Errorf("rank correlation EMD vs embedded L1 = %.3f, want >= 0.7", rho)
	}
}

func spearman(xs, ys []float64) float64 {
	n := len(xs)
	rankOf := func(v []float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
		r := make([]float64, n)
		for rank, i := range idx {
			r[i] = float64(rank)
		}
		return r
	}
	ra := rankOf(xs)
	rb := rankOf(ys)
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1))
}

func TestHashFamilyDeterministic(t *testing.T) {
	a := NewHashFamily(15, 8, 8, 0.5, 42)
	b := NewHashFamily(15, 8, 8, 0.5, 42)
	x := make([]float64, 15)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	ha, hb := a.Hash(x), b.Hash(x)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("hash %d differs: %d vs %d", i, ha[i], hb[i])
		}
	}
}

func TestHashFamilyBounds(t *testing.T) {
	hf := NewHashFamily(10, 8, 8, 0.25, 7)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 10)
		for i := range x {
			x[i] = rng.NormFloat64() * 100 // extreme inputs
		}
		for _, h := range hf.Hash(x) {
			if h < 0 || h > 255 {
				t.Fatalf("hash value %d out of [0,255]", h)
			}
		}
	}
}

func TestHashFamilyPanics(t *testing.T) {
	for _, tc := range []struct{ m, bits int }{{0, 8}, {9, 8}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("m=%d bits=%d: expected panic", tc.m, tc.bits)
				}
			}()
			NewHashFamily(4, tc.m, tc.bits, 1, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("w=0: expected panic")
			}
		}()
		NewHashFamily(4, 4, 8, 0, 1)
	}()
}

func TestZOrderKnownPattern(t *testing.T) {
	// Two 2-bit values: v0=0b10, v1=0b01 → interleaved MSB-first: 1,0,0,1.
	got := ZOrder([]int{2, 1}, 2)
	if got != 0b1001 {
		t.Errorf("ZOrder = %b, want 1001", got)
	}
}

func TestZOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >64 bits")
		}
	}()
	ZOrder(make([]int, 9), 8)
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b  uint64
		total int
		want  int
	}{
		{0b1010, 0b1010, 4, 4},
		{0b1010, 0b1011, 4, 3},
		{0b1010, 0b0010, 4, 0},
		{0, 0, 64, 64},
		{0, 1, 64, 63},
	}
	for _, c := range cases {
		if got := CommonPrefixLen(c.a, c.b, c.total); got != c.want {
			t.Errorf("CommonPrefixLen(%b,%b,%d) = %d, want %d", c.a, c.b, c.total, got, c.want)
		}
	}
}

// Property: the Z-order key preserves per-function hash equality — equal
// hashes give the longest possible prefix, and longer shared prefixes never
// come from more differing hash values.
func TestPropertyZOrderPrefixStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const m, bits = 8, 8
		a := make([]int, m)
		b := make([]int, m)
		for i := range a {
			a[i] = rng.Intn(256)
			b[i] = a[i]
		}
		// Identical → full prefix.
		if CommonPrefixLen(ZOrder(a, bits), ZOrder(b, bits), m*bits) != m*bits {
			return false
		}
		// Flip the lowest bit of one value: prefix must stay >= (bits-1)*m.
		b[rng.Intn(m)] ^= 1
		if CommonPrefixLen(ZOrder(a, bits), ZOrder(b, bits), m*bits) < (bits-1)*m {
			return false
		}
		// Flip the highest bit: prefix < m.
		c := append([]int(nil), a...)
		c[rng.Intn(m)] ^= 1 << (bits - 1)
		return CommonPrefixLen(ZOrder(a, bits), ZOrder(c, bits), m*bits) < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// LSH locality: near-identical histograms should share strictly longer
// Z-order prefixes on average than unrelated ones.
func TestLSHLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEmbedder(-1, 1, 7)
	hf := NewHashFamily(e.Dim(), 8, 8, 0.05, 9)
	var nearSum, farSum float64
	const trials = 120
	for i := 0; i < trials; i++ {
		v1, w1 := randHist(rng, 5)
		// Near: tiny perturbation.
		v2 := append([]float64(nil), v1...)
		for j := range v2 {
			v2[j] += rng.NormFloat64() * 0.01
		}
		// Far: fresh histogram.
		v3, w3 := randHist(rng, 5)
		k1 := hf.Key(e, v1, w1)
		k2 := hf.Key(e, v2, w1)
		k3 := hf.Key(e, v3, w3)
		nearSum += float64(CommonPrefixLen(k1, k2, 64))
		farSum += float64(CommonPrefixLen(k1, k3, 64))
	}
	if nearSum <= farSum {
		t.Errorf("near prefix avg %.2f <= far prefix avg %.2f", nearSum/trials, farSum/trials)
	}
}

func BenchmarkEmbed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := NewEmbedder(-1, 1, 7)
	v, w := randHist(rng, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Embed(v, w)
	}
}

func BenchmarkKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e := NewEmbedder(-1, 1, 7)
	hf := NewHashFamily(e.Dim(), 8, 8, 0.05, 9)
	v, w := randHist(rng, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hf.Key(e, v, w)
	}
}

// FuzzZOrderPrefix: CommonPrefixLen over arbitrary keys stays within bounds
// and is symmetric.
func FuzzZOrderPrefix(f *testing.F) {
	f.Add(uint64(0), uint64(0), 64)
	f.Add(uint64(1)<<63, uint64(0), 64)
	f.Add(uint64(0xdeadbeef), uint64(0xdeadbeee), 32)
	f.Fuzz(func(t *testing.T, a, b uint64, total int) {
		if total < 1 {
			total = 1
		}
		if total > 64 {
			total = 64
		}
		// Mask to the declared width so equal-width semantics hold.
		if total < 64 {
			mask := (uint64(1) << total) - 1
			a &= mask
			b &= mask
		}
		p := CommonPrefixLen(a, b, total)
		q := CommonPrefixLen(b, a, total)
		if p != q {
			t.Fatalf("asymmetric: %d vs %d", p, q)
		}
		if p < 0 || p > total {
			t.Fatalf("prefix %d out of [0,%d]", p, total)
		}
		if a == b && p != total {
			t.Fatalf("equal keys prefix %d, want %d", p, total)
		}
	})
}
