package signature

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// refByValue is how Compile sorted before it sorted a permutation: the
// emd.SortByValue of the time, sort.Stable over the value and weight arrays
// swapped together. Compile's sorted V and W must equal its output bit for
// bit, ties, ±0 and NaN included.
type refByValue struct{ v, w []float64 }

func (s refByValue) Len() int           { return len(s.v) }
func (s refByValue) Less(i, j int) bool { return s.v[i] < s.v[j] }
func (s refByValue) Swap(i, j int) {
	s.v[i], s.v[j] = s.v[j], s.v[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// fuzzValues and fuzzWeights are the special values decodeSeries draws
// from: repeats make ties, and ±0, NaN, infinities, negative and zero
// weights are the cases a sort or a validity check could treat unevenly.
var (
	fuzzValues  = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 255, -255, 3.25}
	fuzzWeights = []float64{0, math.Copysign(0, -1), 1, 0.5, -0.25, math.NaN(), 1e-9, 0.125, math.Inf(1)}
)

// decodeSeries turns fuzz bytes into a series. data[0] is the signature
// count (mod 8); each signature then reads a one-byte cuboid count, 0xff
// standing for MaxCuboids, so empty signatures and the uint16 bound are
// both reachable while most inputs stay small enough to fuzz quickly. Cuboid j takes its value and weight bytes cyclically from
// what follows the headers: a byte below the table length picks a special
// value, any other a quarter-step (values) or 1/256-step (weights) number.
func decodeSeries(data []byte) Series {
	if len(data) == 0 {
		return nil
	}
	nsig := int(data[0] % 8)
	data = data[1:]
	counts := make([]int, nsig)
	for i := range counts {
		if len(data) == 0 {
			counts = counts[:i]
			break
		}
		c := int(data[0])
		if c == 0xff {
			c = MaxCuboids
		}
		counts[i] = c
		data = data[1:]
	}
	byteAt := func(j int) byte {
		if len(data) == 0 {
			return byte(j)
		}
		return data[j%len(data)] + byte(j/len(data))
	}
	s := make(Series, len(counts))
	j := 0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		cb := make([]Cuboid, n)
		for k := range cb {
			vb, wb := byteAt(2*j), byteAt(2*j+1)
			j++
			if int(vb) < len(fuzzValues) {
				cb[k].V = fuzzValues[vb]
			} else {
				cb[k].V = float64(int8(vb)) / 4
			}
			if int(wb) < len(fuzzWeights) {
				cb[k].Mu = fuzzWeights[wb]
			} else {
				cb[k].Mu = float64(wb) / 256
			}
		}
		s[i].Cuboids = cb
	}
	return s
}

// FuzzCompiledRoundTrip holds the compiled form to the two promises the
// engine relies on once it keeps no raw series: CompileSeries(s).Series()
// rebuilds s exactly (every value and weight equal under Float64bits), and
// the sorted V/W equal the stable value sort Compile used to run in place.
func FuzzCompiledRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 20, 40, 60, 80, 100, 120})
	f.Add([]byte{2, 0, 2, 0, 1, 1, 0})           // an empty signature, then ±0
	f.Add([]byte{1, 25, 5, 2, 5, 3, 2, 2, 2, 4}) // NaN values, ties, a negative weight
	f.Add([]byte{3, 40, 7, 21, 200, 201, 8, 8, 0, 0, 100, 4})
	f.Add([]byte{1, 0xff, 17, 91, 130, 12, 250}) // MaxCuboids cuboids
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSeries(data)
		cs := CompileSeries(s)
		back := cs.Series()
		if len(back) != len(s) {
			t.Fatalf("rebuilt %d signatures, compiled %d", len(back), len(s))
		}
		for i, sig := range s {
			n := len(sig.Cuboids)
			v, w := make([]float64, n), make([]float64, n)
			gv, gw := make([]float64, n), make([]float64, n)
			if len(back[i].Cuboids) != n {
				t.Fatalf("signature %d: rebuilt %d cuboids, want %d", i, len(back[i].Cuboids), n)
			}
			for k, c := range sig.Cuboids {
				v[k], w[k] = c.V, c.Mu
				gv[k], gw[k] = back[i].Cuboids[k].V, back[i].Cuboids[k].Mu
			}
			if !sameBits(gv, v) || !sameBits(gw, w) {
				t.Fatalf("signature %d: rebuilt cuboids differ from the input", i)
			}
			sort.Stable(refByValue{v, w})
			if c := &cs.Sigs[i]; !sameBits(c.V, v) || !sameBits(c.W, w) {
				t.Fatalf("signature %d: sorted V/W differ from the stable in-place sort", i)
			}
			if c := Compile(sig); !sameBits(c.V, v) || !sameBits(c.W, w) {
				t.Fatalf("signature %d: Compile differs from CompileSeries", i)
			}
		}
		v, w, perm := sortedForm(cs)
		back2, err := CompiledFromSorted(v, w, perm)
		if err != nil {
			t.Fatalf("CompiledFromSorted rejects CompileSeries' own sorted form: %v", err)
		}
		if !back2.Identical(cs) {
			t.Fatal("CompiledFromSorted of the sorted form differs from CompileSeries")
		}
	})
}

// sortedForm is the sorted form of cs that CompiledFromSorted takes back,
// in fresh arrays.
func sortedForm(cs *CompiledSeries) (v, w [][]float64, perm []uint16) {
	for i := range cs.Sigs {
		v = append(v, slices.Clone(cs.Sigs[i].V))
		w = append(w, slices.Clone(cs.Sigs[i].W))
	}
	return v, w, slices.Clone(cs.Perm())
}

// FuzzCompiledFromSorted: for any sorted form — arbitrary cuboid counts,
// values, weights and permutation entries — CompiledFromSorted either
// rejects it or returns exactly what CompileSeries makes of the series it
// stands for.
func FuzzCompiledFromSorted(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 20, 40, 60, 80, 100, 120})
	f.Add([]byte{2, 0, 2, 0, 1, 1, 0})
	f.Add([]byte{1, 25, 5, 2, 5, 3, 2, 2, 2, 4})
	f.Add([]byte{3, 40, 7, 21, 200, 201, 8, 8, 0, 0, 100, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Start from a genuine sorted form, so most inputs are near-valid,
		// then let the tail of the input overwrite permutation entries and
		// values.
		v, w, perm := sortedForm(CompileSeries(decodeSeries(data)))
		flat := slices.Concat(v...) // flat[j] is cuboid j's sorted value, aliased back below
		tail := data[min(len(data), 1+len(v)):]
		for k := 0; k+2 < len(tail) && len(perm) > 0; k += 3 {
			j := int(tail[k]) % len(perm)
			switch tail[k+1] % 3 {
			case 0:
				perm[j] = uint16(tail[k+2])
			case 1:
				flat[j] = float64(int8(tail[k+2])) / 4
			default:
				perm[j], perm[(j+1)%len(perm)] = perm[(j+1)%len(perm)], perm[j]
			}
		}
		for i, o := 0, 0; i < len(v); i++ {
			o += copy(v[i], flat[o:])
		}
		cs, err := CompiledFromSorted(v, w, perm)
		if err != nil {
			return
		}
		if want := CompileSeries(cs.Series()); !cs.Identical(want) {
			t.Fatal("CompiledFromSorted accepted a form CompileSeries does not produce")
		}
	})
}

// TestCompiledFromSortedRejects: each way a sorted form can be one no
// stable sort produced is an error, not a series that differs from
// CompileSeries.
func TestCompiledFromSortedRejects(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		v, w []float64
		perm []uint16
	}{
		{"weights short", []float64{1, 2, 3}, []float64{1, 1}, []uint16{0, 1, 2}},
		{"permutation short", []float64{1, 2, 3}, []float64{1, 1, 1}, []uint16{0, 1}},
		{"repeated permutation entry", []float64{1, 2, 3}, []float64{1, 1, 1}, []uint16{0, 1, 1}},
		{"permutation entry out of range", []float64{1, 2}, []float64{1, 1}, []uint16{0, 2}},
		{"values descend", []float64{2, 1}, []float64{1, 1}, []uint16{0, 1}},
		{"tie out of order", []float64{1, 1}, []float64{1, 1}, []uint16{1, 0}},
		{"±0 tie out of order", []float64{0, math.Copysign(0, -1)}, []float64{1, 1}, []uint16{1, 0}},
		{"NaN where the sort leaves none", []float64{1, nan, 3}, []float64{1, 1, 1}, []uint16{2, 1, 0}},
		{"too many cuboids", make([]float64, MaxCuboids+1), make([]float64, MaxCuboids+1), make([]uint16, MaxCuboids+1)},
	} {
		if _, err := CompiledFromSorted([][]float64{tc.v}, [][]float64{tc.w}, tc.perm); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := CompiledFromSorted([][]float64{{1}}, nil, []uint16{0}); err == nil {
		t.Error("values without weights: accepted")
	}
}

// TestCompileRejectsOversizedSignature: one cuboid past MaxCuboids cannot be
// recorded in a uint16 permutation, and Compile says so instead of wrapping.
func TestCompileRejectsOversizedSignature(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("compiling MaxCuboids+1 cuboids did not panic")
		}
	}()
	CompileSeries(Series{{Cuboids: make([]Cuboid, MaxCuboids+1)}})
}
