package social

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDescriptorDedupes(t *testing.T) {
	d := NewDescriptor("owner", "a", "b", "a", "owner", "")
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (owner, a, b)", d.Len())
	}
	for _, u := range []string{"owner", "a", "b"} {
		if !d.Contains(u) {
			t.Errorf("missing %q", u)
		}
	}
	if d.Contains("c") {
		t.Error("unexpected user c")
	}
}

func TestNewDescriptorEmptyOwner(t *testing.T) {
	d := NewDescriptor("", "x")
	if d.Len() != 1 || !d.Contains("x") {
		t.Errorf("descriptor = %v", d.Users())
	}
}

func TestDescriptorAddDoesNotMutate(t *testing.T) {
	d := NewDescriptor("o", "a")
	e := d.Add("b", "a")
	if d.Len() != 2 {
		t.Errorf("original mutated: Len = %d", d.Len())
	}
	if e.Len() != 3 || !e.Contains("b") {
		t.Errorf("extended descriptor = %v", e.Users())
	}
}

func TestJaccardKnownValues(t *testing.T) {
	a := NewDescriptor("", "u1", "u2", "u3")
	b := NewDescriptor("", "u2", "u3", "u4", "u5")
	// |∩| = 2, |∪| = 5.
	if got := Jaccard(a, b); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Jaccard = %g, want 0.4", got)
	}
}

func TestJaccardEdgeCases(t *testing.T) {
	empty := NewDescriptor("")
	a := NewDescriptor("", "x")
	if got := Jaccard(empty, empty); got != 0 {
		t.Errorf("empty-empty = %g, want 0", got)
	}
	if got := Jaccard(a, empty); got != 0 {
		t.Errorf("a-empty = %g, want 0", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self = %g, want 1", got)
	}
}

func TestVectorize(t *testing.T) {
	cnos := map[string]int{"a": 0, "b": 1, "c": 1, "zombie": 99}
	lookup := func(u string) (int, bool) { c, ok := cnos[u]; return c, ok }
	d := NewDescriptor("", "a", "b", "c", "unknown", "zombie")
	v := Vectorize(d, lookup, 3)
	if len(v) != 3 {
		t.Fatalf("len = %d, want 3", len(v))
	}
	if v[0] != 1 || v[1] != 2 || v[2] != 0 {
		t.Errorf("vector = %v, want [1 2 0]", v)
	}
}

func TestApproxJaccardKnownValues(t *testing.T) {
	a := Vector{2, 0, 3}
	b := Vector{1, 1, 3}
	// min: 1+0+3 = 4; max: 2+1+3 = 6.
	if got := ApproxJaccard(a, b); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("ApproxJaccard = %g, want 2/3", got)
	}
}

func TestApproxJaccardEdgeCases(t *testing.T) {
	if got := ApproxJaccard(Vector{0, 0}, Vector{0, 0}); got != 0 {
		t.Errorf("zero vectors = %g, want 0", got)
	}
	if got := ApproxJaccard(Vector{1, 2}, Vector{1, 2}); got != 1 {
		t.Errorf("self = %g, want 1", got)
	}
	// Length mismatch degrades instead of panicking.
	if got := ApproxJaccard(Vector{1}, Vector{1, 3}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("mismatched lengths = %g, want 0.25", got)
	}
}

func randomDescriptor(rng *rand.Rand, universe int) Descriptor {
	n := rng.Intn(12)
	users := make([]string, 0, n)
	for i := 0; i < n; i++ {
		users = append(users, fmt.Sprintf("u%d", rng.Intn(universe)))
	}
	return NewDescriptor("", users...)
}

func TestPropertyJaccardAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDescriptor(rng, 20)
		b := randomDescriptor(rng, 20)
		s := Jaccard(a, b)
		if s < 0 || s > 1 {
			return false
		}
		if math.Abs(Jaccard(b, a)-s) > 1e-15 {
			return false
		}
		if a.Len() > 0 && Jaccard(a, a) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// SAR exactness property from DESIGN.md: with one sub-community per user the
// approximation degenerates to the exact Jaccard.
func TestPropertySingletonSubCommunitiesExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const universe = 15
		lookup := func(u string) (int, bool) {
			var id int
			if _, err := fmt.Sscanf(u, "u%d", &id); err != nil {
				return 0, false
			}
			return id, true
		}
		a := randomDescriptor(rng, universe)
		b := randomDescriptor(rng, universe)
		va := Vectorize(a, lookup, universe)
		vb := Vectorize(b, lookup, universe)
		return math.Abs(ApproxJaccard(va, vb)-Jaccard(a, b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// s̃J can only overestimate or underestimate within [0,1] and stays
// symmetric.
func TestPropertyApproxJaccardAxioms(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a := make(Vector, half)
		b := make(Vector, half)
		for i := 0; i < half; i++ {
			a[i] = float64(raw[i] % 8)
			b[i] = float64(raw[half+i] % 8)
		}
		s := ApproxJaccard(a, b)
		if s < 0 || s > 1 {
			return false
		}
		return math.Abs(ApproxJaccard(b, a)-s) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJaccardLargeDescriptors(b *testing.B) {
	users := make([]string, 2000)
	for i := range users {
		users[i] = fmt.Sprintf("user-%d", i)
	}
	d1 := NewDescriptor("", users[:1500]...)
	d2 := NewDescriptor("", users[500:]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(d1, d2)
	}
}

func BenchmarkApproxJaccard(b *testing.B) {
	a := make(Vector, 60)
	c := make(Vector, 60)
	for i := range a {
		a[i] = float64(i % 7)
		c[i] = float64((i + 3) % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproxJaccard(a, c)
	}
}

// TestApproxJaccardSparseIdentity pins the identity the query path's sparse
// s̃J rests on: over non-negative integer count vectors of any lengths
// (all-zero ones included), Eq. 6's Σ min / Σ max equals m / (|a| + |b| − m),
// with m the Σ min over the shared prefix — bit for bit, not within a
// tolerance.
func TestApproxJaccardSparseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randVec := func() Vector {
		v := make(Vector, rng.Intn(70))
		if rng.Intn(8) == 0 {
			return v // all zero
		}
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = float64(rng.Intn(1 << rng.Intn(20)))
			}
		}
		return v
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := randVec(), randVec()
		var m, ma, mb uint64
		for i := range min(len(a), len(b)) {
			m += uint64(min(a[i], b[i]))
		}
		for _, x := range a {
			ma += uint64(x)
		}
		for _, x := range b {
			mb += uint64(x)
		}
		want := 0.0
		if den := ma + mb - m; den != 0 {
			want = float64(m) / float64(den)
		}
		if got := ApproxJaccard(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: ApproxJaccard = %v, m/(|a|+|b|−m) = %v\na = %v\nb = %v", trial, got, want, a, b)
		}
	}
}
