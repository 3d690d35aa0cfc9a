package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// slot is one (key, value) pair; tests give every insert a distinct value so
// the order inside a run of equal keys is checked too.
type slot struct {
	k uint64
	v int
}

// seekLast positions at the largest key: down the right edge.
func seekLast[V any](t *Tree[V]) Iterator[V] {
	var it Iterator[V]
	n := t.root
	for n.children != nil {
		it.path[it.depth] = step[V]{n, len(n.children) - 1}
		it.depth++
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) > 0 {
		it.leaf, it.idx = n, len(n.keys)-1
	}
	return it
}

// forward is the full scan from the smallest key.
func forward(t *Tree[int]) []slot {
	var out []slot
	for it := t.SeekAt(0); it.Valid(); it.Next() {
		out = append(out, slot{it.Key(), it.Value()})
	}
	return out
}

// backward is the full scan from the largest key.
func backward(t *Tree[int]) []slot {
	var out []slot
	for it := seekLast(t); it.Valid(); it.Prev() {
		out = append(out, slot{it.Key(), it.Value()})
	}
	return out
}

// model is the obviously-right tree: a sorted slice where a new slot lands
// after the existing equal keys.
type model []slot

func (m model) insert(k uint64, v int) model {
	i := sort.Search(len(m), func(i int) bool { return m[i].k > k })
	return slices.Insert(m, i, slot{k, v})
}

// checkAgainst holds a tree to its model: length, the forward scan, the
// backward scan, and from each probe's SeekAt position the exact sequences
// Next and Prev walk from there.
func checkAgainst(t testing.TB, name string, tr *Tree[int], m model, probes []uint64) {
	t.Helper()
	if tr.Len() != len(m) {
		t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), len(m))
	}
	if got := forward(tr); !slices.Equal(got, []slot(m)) {
		t.Fatalf("%s: forward scan\n got %v\nwant %v", name, got, m)
	}
	back := backward(tr)
	slices.Reverse(back)
	if !slices.Equal(back, []slot(m)) {
		t.Fatalf("%s: backward scan (reversed)\n got %v\nwant %v", name, back, m)
	}
	for _, p := range probes {
		i := sort.Search(len(m), func(i int) bool { return m[i].k >= p })
		it := tr.SeekAt(p)
		if it.Valid() != (i < len(m)) {
			t.Fatalf("%s: SeekAt(%d).Valid() = %v, model slot %d of %d", name, p, it.Valid(), i, len(m))
		}
		if !it.Valid() {
			continue
		}
		down := it
		for j := i; j < len(m); j++ {
			if got := (slot{it.Key(), it.Value()}); got != m[j] {
				t.Fatalf("%s: SeekAt(%d) + %d Next = %v, want %v", name, p, j-i, got, m[j])
			}
			if it.Next() != (j+1 < len(m)) {
				t.Fatalf("%s: SeekAt(%d): Next validity wrong at model slot %d", name, p, j+1)
			}
		}
		for j := i; j >= 0; j-- {
			if got := (slot{down.Key(), down.Value()}); got != m[j] {
				t.Fatalf("%s: SeekAt(%d) + %d Prev = %v, want %v", name, p, i-j, got, m[j])
			}
			if down.Prev() != (j > 0) {
				t.Fatalf("%s: SeekAt(%d): Prev validity wrong at model slot %d", name, p, j-1)
			}
		}
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := New[string](4)
	tr.Insert(10, "a")
	tr.Insert(5, "b")
	tr.Insert(20, "c")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if it := tr.SeekAt(5); !it.Valid() || it.Key() != 5 || it.Value() != "b" {
		t.Errorf("SeekAt(5) missed the stored slot")
	}
	if it := tr.SeekAt(7); !it.Valid() || it.Key() != 10 {
		t.Error("SeekAt(7) should land on 10: 7 is not stored")
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
	scan := forward(tr)
	if len(scan) != n {
		t.Fatalf("scan visited %d keys, want %d", len(scan), n)
	}
	for i, s := range scan {
		if s.k != uint64(i) || s.v != i {
			t.Fatalf("scan[%d] = %v", i, s)
		}
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
	for it := tr.SeekAt(7); it.Valid() && it.Key() == 7; it.Next() {
		if it.Value() != count {
			t.Fatalf("duplicate %d carries value %d: insertion order lost", count, it.Value())
		}
		count++
	}
	if count != 50 {
		t.Errorf("found %d duplicates of key 7, want 50", count)
	}
	if tr.Len() != 52 {
		t.Errorf("Len = %d, want 52", tr.Len())
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
		it := tr.SeekAt(c.seek)
		if it.Valid() != c.ok {
			t.Errorf("SeekAt(%d).Valid = %v, want %v", c.seek, it.Valid(), c.ok)
			continue
		}
		if c.ok && it.Key() != c.want {
			t.Errorf("SeekAt(%d) = %d, want %d", c.seek, it.Key(), c.want)
		}
	}
}

func TestIteratorBidirectional(t *testing.T) {
	tr := New[int](4)
	keys := []uint64{1, 3, 5, 7, 9, 11, 13}
	for _, k := range keys {
		tr.Insert(k, int(k))
	}
	it := tr.SeekAt(7)
	if !it.Valid() || it.Key() != 7 {
		t.Fatalf("SeekAt(7) invalid")
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
	// Walk off the front: the iterator is dead in both directions.
	it = tr.SeekAt(0)
	if it.Prev() || it.Next() {
		t.Error("Prev past the first key should invalidate for good")
	}
	// Walk off the back.
	it = seekLast(tr)
	if it.Key() != 13 {
		t.Errorf("last key = %d", it.Key())
	}
	if it.Next() || it.Prev() {
		t.Error("Next past the last key should invalidate for good")
	}
}

// An iterator is a value: a copy keeps its own path, so the walker's
// "bwd = fwd" gives two independent positions.
func TestIteratorClone(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 100; i++ {
		tr.Insert(uint64(i), i)
	}
	it := tr.SeekAt(40)
	cl := it
	for i := 0; i < 30; i++ { // across several leaves
		it.Next()
	}
	if cl.Key() != 40 {
		t.Errorf("copy moved with original: %d", cl.Key())
	}
	for i := 0; i < 30; i++ {
		cl.Prev()
	}
	if it.Key() != 70 || cl.Key() != 10 {
		t.Errorf("after diverging walks: original at %d (want 70), copy at %d (want 10)", it.Key(), cl.Key())
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New[int](4)
	if it := tr.SeekAt(0); it.Valid() || it.Next() || it.Prev() {
		t.Error("SeekAt on empty is valid")
	}
	if it := seekLast(tr); it.Valid() {
		t.Error("last slot of an empty tree is valid")
	}
	cl := tr.Clone()
	if it := cl.SeekAt(0); cl.Len() != 0 || it.Valid() {
		t.Error("clone of an empty tree is not empty")
	}
}

func TestDescend(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 100; i++ {
		tr.Insert(uint64(i), i)
	}
	back := backward(tr)
	if len(back) != 100 {
		t.Fatalf("backward walk visited %d slots, want 100", len(back))
	}
	for i, s := range back {
		if s.k != uint64(99-i) {
			t.Fatalf("backward[%d] = %d, want %d", i, s.k, 99-i)
		}
	}
}

// Property: under arbitrary interleavings of Insert and Clone — inserts go to
// any generation, clones fork any generation — every tree, however old and
// however many descendants have since rewritten the paths it shares, yields
// exactly its own model's sequence forwards and backwards from any SeekAt.
func TestPropertyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type gen struct {
			tr *Tree[int]
			m  model
		}
		gens := []gen{{tr: New[int](4 + rng.Intn(8))}}
		next := 0
		for op := 0; op < 600; op++ {
			g := &gens[rng.Intn(len(gens))]
			if len(gens) < 12 && rng.Intn(40) == 0 {
				gens = append(gens, gen{tr: g.tr.Clone(), m: slices.Clone(g.m)})
				continue
			}
			k := uint64(rng.Intn(60))
			g.tr.Insert(k, next)
			g.m = g.m.insert(k, next)
			next++
		}
		if len(gens) < 4 {
			return true // too few forks to prove anything; other seeds cover it
		}
		probes := make([]uint64, 12)
		for i := range probes {
			probes[i] = uint64(rng.Intn(70))
		}
		for i, g := range gens {
			checkAgainst(t, fmt.Sprintf("seed %d generation %d", seed, i), g.tr, g.m, probes)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of clones, each extending its parent — the shape the
// core engine produces, one clone per publish — leaves every ancestor's
// backward walk the mirror of its forward walk: the paths iterators climb
// through stay consistent in trees whose nodes later generations copied.
func TestPropertyLeafChainConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int](4)
		var chain []*Tree[int]
		for i := 0; i < 500; i++ {
			if i%100 == 99 {
				chain = append(chain, tr)
				tr = tr.Clone()
			}
			k := rng.Intn(50)
			tr.Insert(uint64(k), i)
		}
		chain = append(chain, tr)
		for g, tr := range chain {
			fwd, bwd := forward(tr), backward(tr)
			slices.Reverse(bwd)
			if len(fwd) != min(500, (g+1)*100-1) || !slices.Equal(fwd, bwd) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// linearSeek is the obviously-right SeekAt: walk from the front to the first
// slot >= key.
func linearSeek[V any](tr *Tree[V], key uint64) Iterator[V] {
	it := tr.SeekAt(0)
	for it.Valid() && it.Key() < key {
		it.Next()
	}
	return it
}

// leafSpan counts the leaves a run of key occupies.
func leafSpan[V any](tr *Tree[V], key uint64) int {
	leaves := 0
	var last *node[V]
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
// above the maximum) the position, path included, is the one a linear
// first->= walk reaches, in the writer's tree and in every frozen ancestor
// while clones keep splitting the leaves the runs live in.
func TestSeekAtDuplicateRuns(t *testing.T) {
	for _, order := range []int{4, 64} {
		tr := New[int](order)
		rng := rand.New(rand.NewSource(int64(order)))
		runs := []uint64{10, 20, 21, 40, 1 << 40}
		next := 0
		check := func(stage string, tr *Tree[int]) {
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
		check("after inserts", tr)
		// Freeze a generation every few inserts and keep growing random runs
		// in the clone, re-checking the writer and every frozen ancestor.
		var frozen []*Tree[int]
		for round := 0; round < 4*order; round++ {
			if round%order == 0 {
				frozen = append(frozen, tr)
				tr = tr.Clone()
			}
			tr.Insert(runs[rng.Intn(len(runs))], next)
			next++
			check("writer while cloning", tr)
			for _, old := range frozen {
				check("frozen ancestor", old)
			}
		}
	}
}

// A frozen tree is walked lock-free while its clone takes 50k inserts: the
// readers must see exactly the frozen contents on every pass, and under -race
// any write into a node the frozen tree can reach is reported.
func TestFrozenCloneWalkedWhileWriterInserts(t *testing.T) {
	frozen := New[int](16)
	rng := rand.New(rand.NewSource(9))
	var m model
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(2000))
		frozen.Insert(k, i)
		m = m.insert(k, i)
	}
	writer := frozen.Clone()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate directions from a seek in the middle and full scans.
				start := uint64((g*500 + pass*37) % 2000)
				i := sort.Search(len(m), func(i int) bool { return m[i].k >= start })
				it := frozen.SeekAt(start)
				back := it
				for j := i; j < len(m); j++ {
					if !it.Valid() || it.Key() != m[j].k || it.Value() != m[j].v {
						t.Errorf("reader %d: forward slot %d diverged from the frozen contents", g, j)
						return
					}
					it.Next()
				}
				for j := i; j >= 0 && i < len(m); j-- {
					if !back.Valid() || back.Key() != m[j].k || back.Value() != m[j].v {
						t.Errorf("reader %d: backward slot %d diverged from the frozen contents", g, j)
						return
					}
					back.Prev()
				}
			}
		}(g)
	}
	for i := 0; i < 50000; i++ {
		writer.Insert(uint64(rng.Intn(2000)), -i)
	}
	close(stop)
	wg.Wait()
	if writer.Len() != 55000 || frozen.Len() != 5000 {
		t.Fatalf("Len: writer %d (want 55000), frozen %d (want 5000)", writer.Len(), frozen.Len())
	}
}

// The walker embeds iterators by value and steps them on the query path:
// a seek plus a long walk in both directions — leaf crossings included —
// must not allocate.
func TestIteratorWalkAllocs(t *testing.T) {
	tr := New[int](8)
	for i := 0; i < 5000; i++ {
		tr.Insert(uint64(i%700), i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		fwd := tr.SeekAt(350)
		bwd := fwd
		for i := 0; i < 512; i++ {
			fwd.Next()
			bwd.Prev()
		}
		if !fwd.Valid() || !bwd.Valid() {
			t.Fatal("walk ran off the tree")
		}
	})
	if allocs != 0 {
		t.Fatalf("SeekAt + 512 Next/Prev steps allocate %.0f times, want 0", allocs)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New[int](64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i*2654435761), i)
	}
}

// One publish: clone the tree, insert one key into the clone. Cost must be a
// root-to-leaf path, whatever the tree holds.
func BenchmarkCloneInsert(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tr := New[int](64)
			for i := 0; i < n; i++ {
				tr.Insert(uint64(i*2654435761), i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr = tr.Clone()
				tr.Insert(uint64(i*40503), i)
			}
		})
	}
}

func BenchmarkSeek(b *testing.B) {
	tr := New[int](64)
	for i := 0; i < 100000; i++ {
		tr.Insert(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SeekAt(uint64(i % 100000))
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
