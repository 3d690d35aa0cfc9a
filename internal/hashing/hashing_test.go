package hashing

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShiftAddXorDeterministic(t *testing.T) {
	a := ShiftAddXor("alice", 7, 1024)
	b := ShiftAddXor("alice", 7, 1024)
	if a != b {
		t.Fatalf("hash not deterministic: %d vs %d", a, b)
	}
	if a >= 1024 {
		t.Fatalf("hash %d not reduced modulo table size", a)
	}
}

func TestShiftAddXorSeedSelectsFunction(t *testing.T) {
	// Different seeds should give different mappings for at least some keys.
	diff := 0
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("user-%d", i)
		if ShiftAddXor(key, 1, 4096) != ShiftAddXor(key, 2, 4096) {
			diff++
		}
	}
	if diff < 50 {
		t.Errorf("only %d/100 keys moved between seeds", diff)
	}
}

func TestShiftAddXorUniformity(t *testing.T) {
	// Coarse uniformity: hashing 64k distinct keys into 256 buckets should
	// not leave any bucket nearly empty or overfull (±50% of expectation).
	const buckets = 256
	const keys = 1 << 16
	counts := make([]int, buckets)
	for i := 0; i < keys; i++ {
		counts[ShiftAddXor(fmt.Sprintf("user-%d", i), 31, buckets)]++
	}
	want := keys / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d keys, expectation %d", b, c, want)
		}
	}
}

func TestShiftAddXorEmptyString(t *testing.T) {
	if got := ShiftAddXor("", 5, 100); got != 5%100 {
		t.Errorf("empty string hash = %d, want seed mod size", got)
	}
}

func TestTableInsertLookup(t *testing.T) {
	tb := NewTable(16, 1)
	tb.Insert("alice", 3)
	tb.Insert("bob", 7)
	if got, ok := tb.Lookup("alice"); !ok || got != 3 {
		t.Errorf("alice -> (%d, %v), want (3, true)", got, ok)
	}
	if got, ok := tb.Lookup("bob"); !ok || got != 7 {
		t.Errorf("bob -> (%d, %v), want (7, true)", got, ok)
	}
	if _, ok := tb.Lookup("carol"); ok {
		t.Error("carol should be absent")
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
}

func TestTableInsertUpdatesExisting(t *testing.T) {
	tb := NewTable(4, 1)
	tb.Insert("alice", 1)
	tb.Insert("alice", 9)
	if got, _ := tb.Lookup("alice"); got != 9 {
		t.Errorf("alice -> %d, want 9", got)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

func TestNewTableClampsBuckets(t *testing.T) {
	tb := NewTable(0, 1)
	tb.Insert("x", 1)
	if got, ok := tb.Lookup("x"); !ok || got != 1 {
		t.Error("table with clamped bucket count unusable")
	}
	tb.Insert("y", 2) // chains behind x in the one bucket
	if got, ok := tb.Lookup("x"); !ok || got != 1 {
		t.Error("clamped table lost x behind a second key")
	}
	if got, ok := tb.Lookup("y"); !ok || got != 2 || tb.Len() != 2 {
		t.Errorf("y -> (%d, %v), Len %d; want (2, true), 2", got, ok, tb.Len())
	}
}

// Property: the chained table behaves exactly like a built-in map under a
// random operation sequence.
func TestPropertyTableMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(1+rng.Intn(8), uint32(rng.Int31())) // small → heavy chaining
		ref := map[string]int{}
		for op := 0; op < 300; op++ {
			key := fmt.Sprintf("u%d", rng.Intn(40))
			switch rng.Intn(2) {
			case 0:
				cno := rng.Intn(10)
				tb.Insert(key, cno)
				ref[key] = cno
			case 1:
				got, ok := tb.Lookup(key)
				want, wok := ref[key]
				if ok != wok || (ok && got != want) {
					return false
				}
			}
			if tb.Len() != len(ref) {
				return false
			}
		}
		for key, want := range ref {
			if got, ok := tb.Lookup(key); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tb := NewTable(4096, 17)
	for i := 0; i < 10000; i++ {
		tb.Insert(fmt.Sprintf("user-%d", i), i%60)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup("user-5000")
	}
}

func BenchmarkShiftAddXor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ShiftAddXor("some-social-user-name", 17, 1<<20)
	}
}

// FuzzShiftAddXor: any key, seed and table size must hash in range without
// panicking, deterministically.
func FuzzShiftAddXor(f *testing.F) {
	f.Add("user-1", uint32(17), uint32(1024))
	f.Add("", uint32(0), uint32(1))
	f.Add("日本語キー", uint32(99), uint32(7))
	f.Fuzz(func(t *testing.T, key string, seed, size uint32) {
		if size == 0 {
			size = 1
		}
		h1 := ShiftAddXor(key, seed, size)
		h2 := ShiftAddXor(key, seed, size)
		if h1 != h2 {
			t.Fatal("nondeterministic")
		}
		if h1 >= size {
			t.Fatalf("hash %d out of table size %d", h1, size)
		}
	})
}
