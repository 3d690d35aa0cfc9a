// Package lsh implements the content-index machinery of §4.4: the EMD→L1
// embedding (the multi-resolution grid construction of Indyk–Thaper used by
// [35] to "embed EMD-metric into L1-norm space"), a 1-stable (Cauchy) LSH
// family for the L1 norm, and Z-order interleaving of the m hash values into
// the single uint64 keys stored in the LSB-tree [28].
package lsh

import (
	"fmt"
	"math"
	"math/rand"
)

// Embedder maps a weighted 1-D point set (a cuboid signature) to a vector
// whose L1 distance approximates the EMD between the point sets. It overlays
// grids of geometrically finer cells on the value domain; each cell
// contributes its mass scaled by the cell width.
type Embedder struct {
	min, max float64
	levels   int
	dim      int
}

// NewEmbedder builds an embedder over the closed value domain [min, max]
// with the given number of grid levels (level l has 2^l cells). Values
// outside the domain are clamped. Levels is clamped to [1, 12].
func NewEmbedder(min, max float64, levels int) *Embedder {
	if max <= min {
		panic(fmt.Sprintf("lsh: empty value domain [%g, %g]", min, max))
	}
	if levels < 1 {
		levels = 1
	}
	if levels > 12 {
		levels = 12
	}
	dim := 0
	for l := 0; l < levels; l++ {
		dim += 1 << l
	}
	return &Embedder{min: min, max: max, levels: levels, dim: dim}
}

// Dim returns the embedding dimensionality (2^levels − 1).
func (e *Embedder) Dim() int { return e.dim }

// Embed maps the weighted point set to its grid embedding. vals and weights
// must be parallel slices; weights should be normalized (total mass 1) for
// the L1-distance-approximates-EMD guarantee to be meaningful.
func (e *Embedder) Embed(vals, weights []float64) []float64 {
	return e.EmbedInto(nil, vals, weights)
}

// EmbedInto is Embed writing into dst's storage when it has the capacity.
// The returned slice must be used in place of dst.
func (e *Embedder) EmbedInto(dst []float64, vals, weights []float64) []float64 {
	var out []float64
	if cap(dst) >= e.dim {
		out = dst[:e.dim]
		clear(out)
	} else {
		out = make([]float64, e.dim)
	}
	span := e.max - e.min
	offset := 0
	for l := 0; l < e.levels; l++ {
		cells := 1 << l
		cellWidth := span / float64(cells)
		for i, v := range vals {
			x := (v - e.min) / span
			if !(x >= 0) { // below the domain, or NaN, which must not index a cell
				x = 0
			}
			if x >= 1 {
				x = 1 - 1e-12
			}
			c := int(x * float64(cells))
			out[offset+c] += weights[i] * cellWidth
		}
		offset += cells
	}
	return out
}

// L1 returns the L1 distance between two equal-length vectors.
func L1(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// HashFamily is an LSH family for the L1 norm: m independent functions
// h_i(x) = floor((a_i·x + b_i) / W) with Cauchy-distributed a_i (1-stable
// for L1). Each hash value is offset and clamped into [0, 2^bits).
type HashFamily struct {
	m    int
	bits int
	w    float64
	a    [][]float64
	b    []float64
}

// NewHashFamily draws m hash functions over dim-dimensional inputs with
// bucket width w and bits output bits each. m·bits must fit in 64 bits for
// Z-order packing. Deterministic given the seed.
func NewHashFamily(dim, m, bits int, w float64, seed int64) *HashFamily {
	if m < 1 || bits < 1 || m*bits > 64 {
		panic(fmt.Sprintf("lsh: invalid family m=%d bits=%d", m, bits))
	}
	if w <= 0 {
		panic("lsh: bucket width must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	hf := &HashFamily{m: m, bits: bits, w: w}
	hf.a = make([][]float64, m)
	hf.b = make([]float64, m)
	for i := 0; i < m; i++ {
		row := make([]float64, dim)
		for d := range row {
			// Standard Cauchy via inverse CDF.
			row[d] = math.Tan(math.Pi * (rng.Float64() - 0.5))
		}
		hf.a[i] = row
		hf.b[i] = rng.Float64() * w
	}
	return hf
}

// M returns the number of hash functions.
func (hf *HashFamily) M() int { return hf.m }

// Bits returns the output bits per hash function.
func (hf *HashFamily) Bits() int { return hf.bits }

// Hash computes the m clamped hash values of x.
func (hf *HashFamily) Hash(x []float64) []int {
	return hf.HashInto(nil, x)
}

// HashInto is Hash writing into dst's storage when it has the capacity. The
// returned slice must be used in place of dst.
func (hf *HashFamily) HashInto(dst []int, x []float64) []int {
	var out []int
	if cap(dst) >= hf.m {
		out = dst[:hf.m]
	} else {
		out = make([]int, hf.m)
	}
	half := 1 << (hf.bits - 1)
	limit := (1 << hf.bits) - 1
	for i := 0; i < hf.m; i++ {
		var dot float64
		a := hf.a[i]
		for d := range x {
			dot += a[d] * x[d]
		}
		h := int(math.Floor((dot+hf.b[i])/hf.w)) + half
		if h < 0 {
			h = 0
		}
		if h > limit {
			h = limit
		}
		out[i] = h
	}
	return out
}

// Key embeds, hashes and Z-orders a weighted point set in one call.
func (hf *HashFamily) Key(e *Embedder, vals, weights []float64) uint64 {
	return ZOrder(hf.Hash(e.Embed(vals, weights)), hf.bits)
}

// ZOrder interleaves the values bit by bit, most significant bits first,
// producing the Z-order (Morton) key stored in the LSB-tree. Each value
// contributes exactly bits bits; len(vals)*bits must be at most 64.
func ZOrder(vals []int, bits int) uint64 {
	m := len(vals)
	if m == 0 || bits < 1 || m*bits > 64 {
		panic(fmt.Sprintf("lsh: cannot Z-order %d values of %d bits", m, bits))
	}
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for _, v := range vals {
			key = key<<1 | uint64(v>>b)&1
		}
	}
	return key
}

// CommonPrefixLen returns the number of leading bits shared by a and b when
// both are totalBits wide. Longer common prefixes mean closer points in
// every LSH dimension simultaneously — the "next longest common prefix"
// search order of Figure 6 relies on this.
func CommonPrefixLen(a, b uint64, totalBits int) int {
	if totalBits <= 0 || totalBits > 64 {
		panic(fmt.Sprintf("lsh: invalid totalBits %d", totalBits))
	}
	x := (a ^ b) << (64 - totalBits)
	if x == 0 {
		return totalBits
	}
	n := 0
	for x&(1<<63) == 0 {
		n++
		x <<= 1
	}
	return n
}
