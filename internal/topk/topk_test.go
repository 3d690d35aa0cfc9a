package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// intWorse orders plain ints: smaller is worse.
func intWorse(a, b int) bool { return a < b }

// Heap selection must return exactly what sort-everything-and-truncate
// returns, for any stream and any k — the selector is a drop-in replacement
// for the full sort, provided the ordering is total.
func TestSelectorMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		k := 1 + rng.Intn(40)
		xs := make([]int, n)
		for i := range xs {
			// A narrow value range forces duplicates; the int ordering is
			// still total so duplicates may appear in any ordering among
			// themselves — compare as sorted slices.
			xs[i] = rng.Intn(50)
		}
		sel := New(k, intWorse)
		for _, x := range xs {
			sel.Offer(x)
		}
		got := sel.Sorted()

		want := append([]int(nil), xs...)
		sort.Sort(sort.Reverse(sort.IntSlice(want))) // best (largest) first
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectorEdges(t *testing.T) {
	sel := New(0, intWorse)
	sel.Offer(1)
	sel.Offer(2)
	if sel.Len() != 0 || len(sel.Sorted()) != 0 {
		t.Error("k=0 selector retained items")
	}

	sel = New(5, intWorse)
	if got := sel.Sorted(); len(got) != 0 {
		t.Errorf("empty selector Sorted = %v", got)
	}

	sel = New(5, intWorse)
	sel.Offer(3)
	sel.Offer(1)
	if sel.Len() != 2 {
		t.Errorf("Len = %d, want 2", sel.Len())
	}
	got := sel.Sorted()
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("Sorted = %v, want [3 1]", got)
	}
}

// Offer must not allocate once the selector is at capacity: refinement
// offers every candidate it scores through a hot loop.
func TestSelectorOfferZeroAlloc(t *testing.T) {
	sel := New(16, intWorse)
	for i := 0; i < 16; i++ {
		sel.Offer(i)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sel.Offer(20)
	})
	if allocs != 0 {
		t.Fatalf("Offer at capacity allocates %.1f/op, want 0", allocs)
	}
}

// scored mimics the serving layer's ranked result: a score with a string id
// tiebreak, selected under the engine's (score desc, id asc) total order.
type scored struct {
	id    string
	score float64
}

func scoredWorse(a, b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// Merging per-shard selections must preserve (score desc, id asc) exactly,
// including across deliberately colliding scores contributed by different
// shards — the property the scatter-gather router's bit-identity rests on.
// Regression for the merge-of-selectors path: per-shard top-Ks feed a merge
// selector, and the result must equal one selector fed the full stream.
func TestSelectorMergePreservesTieOrder(t *testing.T) {
	// Three "shards", each already reduced to a local top-K. Scores collide
	// across shards on purpose: 0.5 appears on every shard, 0.9 on two.
	shards := [][]scored{
		{{"s0-a", 0.9}, {"s0-b", 0.5}, {"s0-c", 0.1}},
		{{"s1-a", 0.5}, {"s1-b", 0.5}, {"s1-c", 0.3}},
		{{"s2-a", 0.9}, {"s2-b", 0.5}, {"s2-c", 0.05}},
	}
	const k = 6
	merge := New(k, scoredWorse)
	var all []scored
	for _, sh := range shards {
		for _, s := range sh {
			merge.Offer(s)
			all = append(all, s)
		}
	}
	got := merge.Sorted()

	single := New(k, scoredWorse)
	for _, s := range all {
		single.Offer(s)
	}
	want := single.Sorted()

	expect := []scored{
		{"s0-a", 0.9}, {"s2-a", 0.9},
		{"s0-b", 0.5}, {"s1-a", 0.5}, {"s1-b", 0.5}, {"s2-b", 0.5},
	}
	if len(got) != len(expect) {
		t.Fatalf("merged %d items, want %d", len(got), len(expect))
	}
	for i := range expect {
		if got[i] != expect[i] {
			t.Errorf("rank %d: got %v, want %v", i, got[i], expect[i])
		}
		if got[i] != want[i] {
			t.Errorf("rank %d: merge-of-selections %v differs from single selection %v", i, got[i], want[i])
		}
	}
}

// Property form: for any scores (drawn from a small set to force ties) and
// any sharding of the stream, merging per-shard top-Ks equals selecting over
// the whole stream — local selection loses no global winner.
func TestSelectorMergeMatchesGlobal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		k := 1 + rng.Intn(12)
		nshards := 1 + rng.Intn(8)
		locals := make([]*Selector[scored], nshards)
		for i := range locals {
			locals[i] = New(k, scoredWorse)
		}
		global := New(k, scoredWorse)
		for i := 0; i < n; i++ {
			s := scored{
				id:    string(rune('a'+rng.Intn(26))) + string(rune('a'+i%26)) + string(rune('0'+i/26%10)),
				score: float64(rng.Intn(5)) / 4, // heavy collisions
			}
			locals[rng.Intn(nshards)].Offer(s)
			global.Offer(s)
		}
		merge := New(k, scoredWorse)
		for _, l := range locals {
			for _, s := range l.Sorted() {
				merge.Offer(s)
			}
		}
		got, want := merge.Sorted(), global.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
