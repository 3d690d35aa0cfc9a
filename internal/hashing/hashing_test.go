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

func TestTableDelete(t *testing.T) {
	tb := NewTable(2, 1) // tiny table forces chains
	keys := []string{"a", "b", "c", "d", "e"}
	for i, k := range keys {
		tb.Insert(k, i)
	}
	if !tb.Delete("c") {
		t.Fatal("Delete(c) = false")
	}
	if _, ok := tb.Lookup("c"); ok {
		t.Error("c still present after delete")
	}
	if tb.Delete("zz") {
		t.Error("Delete(zz) = true for absent key")
	}
	if tb.Len() != len(keys)-1 {
		t.Errorf("Len = %d, want %d", tb.Len(), len(keys)-1)
	}
	for i, k := range keys {
		if k == "c" {
			continue
		}
		if got, ok := tb.Lookup(k); !ok || got != i {
			t.Errorf("%s -> (%d, %v), want (%d, true)", k, got, ok, i)
		}
	}
}

func TestTableReplaceCno(t *testing.T) {
	tb := NewTable(8, 1)
	tb.Insert("a", 1)
	tb.Insert("b", 1)
	tb.Insert("c", 2)
	if n := tb.ReplaceCno(1, 5); n != 2 {
		t.Errorf("ReplaceCno changed %d entries, want 2", n)
	}
	for _, k := range []string{"a", "b"} {
		if got, _ := tb.Lookup(k); got != 5 {
			t.Errorf("%s -> %d, want 5", k, got)
		}
	}
	if got, _ := tb.Lookup("c"); got != 2 {
		t.Errorf("c -> %d, want 2 (untouched)", got)
	}
}

func TestTableRange(t *testing.T) {
	tb := NewTable(8, 1)
	want := map[string]int{"a": 1, "b": 2, "c": 3}
	for k, v := range want {
		tb.Insert(k, v)
	}
	got := map[string]int{}
	tb.Range(func(k string, cno int) bool {
		got[k] = cno
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s -> %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	tb.Range(func(string, int) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early-stop Range visited %d entries, want 1", n)
	}
}

func TestTableChainStats(t *testing.T) {
	tb := NewTable(1, 1) // everything chains in one bucket
	for i := 0; i < 5; i++ {
		tb.Insert(fmt.Sprintf("k%d", i), i)
	}
	mean, max := tb.ChainStats()
	if mean != 5 || max != 5 {
		t.Errorf("ChainStats = (%g, %d), want (5, 5)", mean, max)
	}
	empty := NewTable(4, 1)
	if mean, max := empty.ChainStats(); mean != 0 || max != 0 {
		t.Errorf("empty ChainStats = (%g, %d)", mean, max)
	}
}

func TestNewTableClampsBuckets(t *testing.T) {
	tb := NewTable(0, 1)
	tb.Insert("x", 1)
	if got, ok := tb.Lookup("x"); !ok || got != 1 {
		t.Error("table with clamped bucket count unusable")
	}
	if tb.Buckets() != 1 {
		t.Errorf("Buckets = %d, want 1", tb.Buckets())
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
			switch rng.Intn(3) {
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
			case 2:
				if tb.Delete(key) != (func() bool { _, ok := ref[key]; return ok })() {
					return false
				}
				delete(ref, key)
			}
			if tb.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: clones are isolated at every generation. Tables fork by Clone and
// any of them — the oldest included — keeps taking Insert, ReplaceCno and
// Delete; each must keep matching its own reference map, key for key, chain
// order aside (Range visits exactly the map's pairs).
func TestPropertyCloneIsolated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type gen struct {
			tb  *Table
			ref map[string]int
		}
		gens := []gen{{NewTable(1+rng.Intn(8), uint32(rng.Int31())), map[string]int{}}}
		for op := 0; op < 400; op++ {
			g := gens[rng.Intn(len(gens))]
			key := fmt.Sprintf("u%d", rng.Intn(40))
			switch rng.Intn(8) {
			case 0:
				if len(gens) < 8 {
					ref := make(map[string]int, len(g.ref))
					for k, v := range g.ref {
						ref[k] = v
					}
					gens = append(gens, gen{g.tb.Clone(), ref})
				}
			case 1:
				old, new := rng.Intn(10), rng.Intn(10)
				want := 0
				for k, v := range g.ref {
					if v == old {
						g.ref[k] = new
						want++
					}
				}
				if got := g.tb.ReplaceCno(old, new); got != want {
					t.Errorf("seed %d: ReplaceCno(%d, %d) changed %d entries, want %d", seed, old, new, got, want)
					return false
				}
			case 2:
				_, had := g.ref[key]
				delete(g.ref, key)
				if g.tb.Delete(key) != had {
					return false
				}
			default:
				cno := rng.Intn(10)
				g.tb.Insert(key, cno)
				g.ref[key] = cno
			}
		}
		for i, g := range gens {
			if g.tb.Len() != len(g.ref) {
				t.Errorf("seed %d: table %d holds %d keys, its reference %d", seed, i, g.tb.Len(), len(g.ref))
				return false
			}
			seen := 0
			ok := true
			g.tb.Range(func(key string, cno int) bool {
				seen++
				want, has := g.ref[key]
				got, found := g.tb.Lookup(key)
				ok = ok && has && found && cno == want && got == want
				return ok
			})
			if !ok || seen != len(g.ref) {
				t.Errorf("seed %d: table %d diverged from its reference map", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// A frozen table is probed lock-free while its clone is rewritten: under
// -race any write into a triad the frozen table can reach is reported.
func TestFrozenTableProbedWhileCloneWrites(t *testing.T) {
	frozen := NewTable(64, 17)
	for i := 0; i < 2000; i++ {
		frozen.Insert(fmt.Sprintf("user-%d", i), i%60)
	}
	writer := frozen.Clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pass := 0; pass < 20; pass++ {
			for i := 0; i < 2000; i++ {
				if cno, ok := frozen.Lookup(fmt.Sprintf("user-%d", i)); !ok || cno != i%60 {
					t.Errorf("frozen table lost user-%d -> %d (got %d, %v)", i, i%60, cno, ok)
					return
				}
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		writer.Insert(fmt.Sprintf("user-%d", i), 99)
		writer.Insert(fmt.Sprintf("fresh-%d", i), 7)
		if i%100 == 0 {
			writer.ReplaceCno(i%60, 61)
		}
	}
	<-done
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
