package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertGetSmall(t *testing.T) {
	tr := New[string](4)
	tr.Insert(10, "a")
	tr.Insert(5, "b")
	tr.Insert(20, "c")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if v, ok := tr.Get(5); !ok || v != "b" {
		t.Errorf("Get(5) = (%q, %v)", v, ok)
	}
	if _, ok := tr.Get(7); ok {
		t.Error("Get(7) should miss")
	}
}

func TestInsertManySorted(t *testing.T) {
	tr := New[int](8)
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	// Full ascending scan must visit every key in order.
	want := uint64(0)
	tr.Ascend(func(k uint64, v int) bool {
		if k != want || v != int(want) {
			t.Fatalf("scan saw (%d,%d), want %d", k, v, want)
		}
		want++
		return true
	})
	if want != n {
		t.Errorf("scan visited %d keys, want %d", want, n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 50; i++ {
		tr.Insert(7, i)
	}
	tr.Insert(3, -1)
	tr.Insert(9, -2)
	count := 0
	tr.AscendRange(7, 8, func(k uint64, v int) bool {
		count++
		return true
	})
	if count != 50 {
		t.Errorf("found %d duplicates of key 7, want 50", count)
	}
	// Delete them all, one at a time.
	for i := 0; i < 50; i++ {
		if !tr.Delete(7) {
			t.Fatalf("Delete(7) #%d failed", i)
		}
	}
	if tr.Delete(7) {
		t.Error("extra Delete(7) succeeded")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestDeleteRebalances(t *testing.T) {
	tr := New[int](4)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i*2), i)
	}
	// Delete in an order that forces borrows and merges.
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if !tr.Delete(uint64(i * 2)) {
			t.Fatalf("Delete(%d) failed", i*2)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", tr.Len())
	}
	if it := tr.SeekFirst(); it.Valid() {
		t.Error("iterator valid on empty tree")
	}
}

func TestSeekSemantics(t *testing.T) {
	tr := New[int](4)
	for _, k := range []uint64{10, 20, 30} {
		tr.Insert(k, int(k))
	}
	cases := []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{0, 10, true}, {10, 10, true}, {11, 20, true},
		{30, 30, true}, {31, 0, false},
	}
	for _, c := range cases {
		it := tr.Seek(c.seek)
		if it.Valid() != c.ok {
			t.Errorf("Seek(%d).Valid = %v, want %v", c.seek, it.Valid(), c.ok)
			continue
		}
		if c.ok && it.Key() != c.want {
			t.Errorf("Seek(%d) = %d, want %d", c.seek, it.Key(), c.want)
		}
	}
}

func TestIteratorBidirectional(t *testing.T) {
	tr := New[int](4)
	keys := []uint64{1, 3, 5, 7, 9, 11, 13}
	for _, k := range keys {
		tr.Insert(k, int(k))
	}
	it := tr.Seek(7)
	if !it.Valid() || it.Key() != 7 {
		t.Fatalf("Seek(7) invalid")
	}
	if !it.Next() || it.Key() != 9 {
		t.Errorf("Next -> %v", it.Key())
	}
	if !it.Prev() || it.Key() != 7 {
		t.Errorf("Prev -> %v", it.Key())
	}
	if !it.Prev() || it.Key() != 5 {
		t.Errorf("Prev -> %v", it.Key())
	}
	// Walk off the front.
	it = tr.SeekFirst()
	if it.Prev() {
		t.Error("Prev past the first key should invalidate")
	}
	// Walk off the back.
	it = tr.SeekLast()
	if it.Key() != 13 {
		t.Errorf("SeekLast = %d", it.Key())
	}
	if it.Next() {
		t.Error("Next past the last key should invalidate")
	}
}

func TestIteratorClone(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 10; i++ {
		tr.Insert(uint64(i), i)
	}
	it := tr.Seek(4)
	cl := it.Clone()
	it.Next()
	if cl.Key() != 4 {
		t.Errorf("clone moved with original: %d", cl.Key())
	}
}

func TestAscendRangeBounds(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 20; i++ {
		tr.Insert(uint64(i), i)
	}
	var got []uint64
	tr.AscendRange(5, 9, func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.AscendRange(0, 100, func(uint64, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New[int](4)
	if tr.Delete(1) {
		t.Error("Delete on empty succeeded")
	}
	if it := tr.Seek(0); it.Valid() {
		t.Error("Seek on empty is valid")
	}
	if it := tr.SeekLast(); it.Valid() {
		t.Error("SeekLast on empty is valid")
	}
}

// Property: under a random workload of inserts and deletes, the tree's full
// scan always equals a sorted reference multiset, and Seek matches a linear
// search.
func TestPropertyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int](4 + rng.Intn(8))
		var ref []uint64 // sorted multiset
		for op := 0; op < 500; op++ {
			k := uint64(rng.Intn(60))
			if rng.Intn(3) > 0 { // 2/3 inserts
				tr.Insert(k, int(k))
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = k
			} else {
				got := tr.Delete(k)
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
				want := i < len(ref) && ref[i] == k
				if got != want {
					return false
				}
				if want {
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Scan equality.
		var scan []uint64
		tr.Ascend(func(k uint64, v int) bool {
			scan = append(scan, k)
			return true
		})
		if len(scan) != len(ref) {
			return false
		}
		for i := range ref {
			if scan[i] != ref[i] {
				return false
			}
		}
		// Seek equality on a few probes.
		for probe := 0; probe < 10; probe++ {
			k := uint64(rng.Intn(70))
			it := tr.Seek(k)
			i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
			if i == len(ref) {
				if it.Valid() {
					return false
				}
			} else if !it.Valid() || it.Key() != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: backward iteration from the end reproduces the reverse of the
// forward scan even after heavy deletion (leaf chain stays consistent).
func TestPropertyLeafChainConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int](4)
		live := map[int]int{} // key -> count
		for i := 0; i < 300; i++ {
			k := rng.Intn(50)
			tr.Insert(uint64(k), k)
			live[k]++
		}
		for i := 0; i < 200; i++ {
			k := rng.Intn(50)
			if tr.Delete(uint64(k)) {
				live[k]--
				if live[k] == 0 {
					delete(live, k)
				}
			}
		}
		var fwd []uint64
		tr.Ascend(func(k uint64, v int) bool { fwd = append(fwd, k); return true })
		var bwd []uint64
		for it := tr.SeekLast(); it.Valid(); it.Prev() {
			bwd = append(bwd, it.Key())
		}
		if len(fwd) != len(bwd) {
			return false
		}
		for i := range fwd {
			if fwd[i] != bwd[len(bwd)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New[int](64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i*2654435761), i)
	}
}

func BenchmarkSeek(b *testing.B) {
	tr := New[int](64)
	for i := 0; i < 100000; i++ {
		tr.Insert(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Seek(uint64(i % 100000))
	}
}

func TestDescend(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 10; i++ {
		tr.Insert(uint64(i), i)
	}
	var got []uint64
	tr.Descend(func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	for i, k := range got {
		if k != uint64(9-i) {
			t.Fatalf("Descend[%d] = %d, want %d", i, k, 9-i)
		}
	}
	n := 0
	tr.Descend(func(uint64, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestDescendRange(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 20; i++ {
		tr.Insert(uint64(i), i)
	}
	var got []uint64
	tr.DescendRange(8, 4, func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{8, 7, 6, 5}
	if len(got) != len(want) {
		t.Fatalf("DescendRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DescendRange = %v, want %v", got, want)
		}
	}
	// hi beyond the max key starts at the top.
	got = nil
	tr.DescendRange(100, 17, func(k uint64, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != 19 || got[1] != 18 {
		t.Errorf("open-hi DescendRange = %v", got)
	}
	// Duplicates of hi are all visited.
	tr.Insert(8, 80)
	tr.Insert(8, 81)
	count := 0
	tr.DescendRange(8, 7, func(k uint64, v int) bool {
		count++
		return true
	})
	if count != 3 {
		t.Errorf("duplicates of hi visited %d times, want 3", count)
	}
	// Empty range.
	got = nil
	tr.DescendRange(4, 4, func(k uint64, v int) bool { got = append(got, k); return true })
	if got != nil {
		t.Errorf("empty range = %v", got)
	}
}

// linearSeek is the obviously-right SeekAt: walk the leaf chain from the
// front to the first slot >= key.
func linearSeek[V any](tr *Tree[V], key uint64) Iterator[V] {
	it := *tr.SeekFirst()
	for it.Valid() && it.Key() < key {
		it.Next()
	}
	return it
}

// leafSpan counts the leaves a run of key occupies.
func leafSpan[V any](tr *Tree[V], key uint64) int {
	leaves := 0
	var last *leaf[V]
	for it := linearSeek(tr, key); it.Valid() && it.Key() == key; it.Next() {
		if it.leaf != last {
			leaves++
			last = it.leaf
		}
	}
	return leaves
}

// Runs of one key that span many leaves — the LSB-tree's normal state: Z-order
// keys collide by design — must not change where SeekAt lands: for every
// probe (inside a run, equal to a separator, between runs, below the minimum,
// above the maximum) the slot is the one a linear first->= walk finds, while
// deletes borrow from and merge the leaves the runs live in.
func TestSeekAtDuplicateRuns(t *testing.T) {
	for _, order := range []int{4, 64} {
		tr := New[int](order)
		rng := rand.New(rand.NewSource(int64(order)))
		runs := []uint64{10, 20, 21, 40, 1 << 40}
		next := 0
		check := func(stage string) {
			t.Helper()
			probes := []uint64{0, 9, 11, 19, 22, 39, 41, 1<<40 - 1, 1<<40 + 1, ^uint64(0)}
			probes = append(probes, runs...)
			for _, k := range probes {
				got, want := tr.SeekAt(k), linearSeek(tr, k)
				if got != want {
					t.Fatalf("order %d, %s: SeekAt(%d) = leaf %p slot %d, linear walk finds leaf %p slot %d",
						order, stage, k, got.leaf, got.idx, want.leaf, want.idx)
				}
			}
		}
		// Interleave the runs so every leaf split happens inside a run.
		for i := 0; i < 5*order; i++ {
			for _, k := range runs {
				tr.Insert(k, next)
				next++
			}
		}
		for _, k := range runs {
			if n := leafSpan(tr, k); n < 4 {
				t.Fatalf("order %d: run of key %d spans %d leaves, want >= 4", order, k, n)
			}
		}
		check("after inserts")
		// Delete most of every run in random order — under-full leaves borrow
		// and merge across the runs' separators — re-checking as the tree
		// shrinks, and refill one run so splits follow merges.
		for round := 0; round < 4*order; round++ {
			k := runs[rng.Intn(len(runs))]
			if !tr.Delete(k) {
				t.Fatalf("order %d: Delete(%d) found nothing", order, k)
			}
			if round%3 == 0 {
				tr.Insert(20, next)
				next++
			}
			check("while deleting")
		}
		for tr.Delete(21) {
			check("emptying a run")
		}
	}
}

// SeekAt must cost the same however long the run of duplicates it lands in:
// ns/op is flat from run length 10 to 100,000 (the backward walk this
// replaces was linear in it).
func BenchmarkSeekDuplicates(b *testing.B) {
	for _, run := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("run%d", run), func(b *testing.B) {
			tr := New[int](64)
			for k := uint64(0); k < 3; k++ {
				for i := 0; i < run; i++ {
					tr.Insert(k, i)
				}
			}
			// Distinct keys above the runs keep the tree's depth the same at
			// every run length, so only the run is varied.
			for i := 0; i < 300000-3*run; i++ {
				tr.Insert(uint64(1000+i), i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := tr.SeekAt(1)
				if !it.Valid() {
					b.Fatal("seek missed")
				}
			}
		})
	}
}
