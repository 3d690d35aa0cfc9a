package index

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"videorec/internal/lsh"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/video"
)

func series(topic int, seed int64) signature.Series {
	rng := rand.New(rand.NewSource(seed))
	v := video.Synthesize("x", topic, video.DefaultSynthOptions(), rng)
	return signature.Extract(v, signature.DefaultOptions())
}

func TestLSBAddAndLen(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	s := series(1, 1)
	ix.Add(1, s)
	if ix.Len() != len(s) {
		t.Errorf("Len = %d, want %d", ix.Len(), len(s))
	}
}

func TestWalkerYieldsEverythingOnce(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	total := 0
	for i := 0; i < 5; i++ {
		s := series(i, int64(i+1))
		ix.Add(uint32(i), s)
		total += len(s)
	}
	w := ix.NewWalker(series(1, 99)[:1]) // single query signature
	count := 0
	for {
		_, _, ok := w.Next()
		if !ok {
			break
		}
		count++
	}
	// One front per (signature, tree): every stored entry is yielded once
	// per tree of the forest.
	want := total * ix.Trees()
	if count != want {
		t.Errorf("walker yielded %d entries, want %d (each stored entry once per front)", count, want)
	}
}

func TestWalkerPrefixDescendingPerFront(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	for i := 0; i < 6; i++ {
		ix.Add(uint32(i), series(i, int64(i+1)))
	}
	w := ix.NewWalker(series(2, 50)[:1])
	last := 1 << 30
	for {
		_, p, ok := w.Next()
		if !ok {
			break
		}
		if p > last {
			t.Fatalf("prefix length increased: %d after %d", p, last)
		}
		last = p
	}
}

func TestWalkerFindsNearDuplicateFirst(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	orig := series(3, 7)
	const origIdx = 100
	ix.Add(origIdx, orig)
	for i := 0; i < 8; i++ {
		ix.Add(uint32(i), series(10+i, int64(i+20)))
	}
	// Query with the original's own signatures: the first few entries must
	// come from origIdx (identical keys → maximal prefix).
	w := ix.NewWalker(orig)
	e, p, ok := w.Next()
	if !ok {
		t.Fatal("walker empty")
	}
	if e.Video != origIdx {
		t.Errorf("first hit = %d (prefix %d), want %d", e.Video, p, origIdx)
	}
	if p != 64 {
		t.Errorf("self prefix = %d, want 64", p)
	}
}

func TestWalkerEmptyIndexAndQuery(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	w := ix.NewWalker(series(1, 1))
	if _, _, ok := w.Next(); ok {
		t.Error("walker on empty index yielded an entry")
	}
	ix.Add(7, series(1, 1))
	w = ix.NewWalker(nil)
	if _, _, ok := w.Next(); ok {
		t.Error("walker with empty query yielded an entry")
	}
}

// linearWalkerYield replays the pre-heap walker's selection rule — scan every
// front in creation order, fwd before bwd, take the first strict improvement —
// over a private set of iterators, yielding (video, prefix) pairs. The heap
// walker must produce the identical sequence.
func linearWalkerYield(ix *LSB, q signature.Series, maxYields int) [][2]int {
	type front struct {
		qkey     uint64
		fwd, bwd int // positions into the collected key/entry arrays; -1 = dead
	}
	// Materialize each tree's ordered (key, video) sequence once.
	type kv struct {
		key   uint64
		video uint32
	}
	flat := make([][]kv, ix.Trees())
	for t := range ix.trees {
		it := ix.trees[t].SeekAt(0)
		for ; it.Valid(); it.Next() {
			flat[t] = append(flat[t], kv{it.Key(), it.Value().Video})
		}
	}
	type ffront struct {
		tree int
		front
	}
	var fronts []ffront
	keys := ix.QueryKeys(q)
	for si := range q {
		for t := range ix.trees {
			k := keys[si*len(ix.trees)+t]
			pos := sort.Search(len(flat[t]), func(i int) bool { return flat[t][i].key >= k })
			f := ffront{tree: t, front: front{qkey: k, fwd: pos, bwd: pos - 1}}
			if f.fwd >= len(flat[t]) {
				f.fwd = -1
				// Matches the production walker: when the seek runs past the
				// end of the tree, the backward front is never seeded.
				f.bwd = -1
			}
			fronts = append(fronts, f)
		}
	}
	var out [][2]int
	for len(out) < maxYields {
		bestP, bestF, bestFwd := -1, -1, false
		for fi := range fronts {
			f := &fronts[fi]
			if f.fwd >= 0 {
				p := lsh.CommonPrefixLen(f.qkey, flat[f.tree][f.fwd].key, ix.totalBits)
				if p > bestP {
					bestP, bestF, bestFwd = p, fi, true
				}
			}
			if f.bwd >= 0 {
				p := lsh.CommonPrefixLen(f.qkey, flat[f.tree][f.bwd].key, ix.totalBits)
				if p > bestP {
					bestP, bestF, bestFwd = p, fi, false
				}
			}
		}
		if bestF < 0 {
			break
		}
		f := &fronts[bestF]
		if bestFwd {
			out = append(out, [2]int{int(flat[f.tree][f.fwd].video), bestP})
			f.fwd++
			if f.fwd >= len(flat[f.tree]) {
				f.fwd = -1
			}
		} else {
			out = append(out, [2]int{int(flat[f.tree][f.bwd].video), bestP})
			f.bwd--
		}
	}
	return out
}

// TestWalkerMatchesLinearReference proves the heap-driven walker yields the
// exact sequence of the linear-tournament walker it replaced — same videos,
// same prefixes, same order — across several query shapes.
func TestWalkerMatchesLinearReference(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	for i := 0; i < 14; i++ {
		ix.Add(uint32(i*3), series(i%7, int64(i+1)))
	}
	queries := []signature.Series{
		series(2, 50)[:1],
		series(4, 81),
		series(0, 7)[:2],
	}
	for qi, q := range queries {
		want := linearWalkerYield(ix, q, 1<<30)
		w := ix.NewWalker(q)
		var got [][2]int
		for {
			e, p, ok := w.Next()
			if !ok {
				break
			}
			got = append(got, [2]int{int(e.Video), p})
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: heap walker yielded %d entries, reference %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: yield %d = %v, reference %v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestWalkerResetReuses verifies a Reset walker behaves like a fresh one.
func TestWalkerResetReuses(t *testing.T) {
	ix := NewLSB(DefaultLSBOptions())
	for i := 0; i < 6; i++ {
		ix.Add(uint32(i), series(i, int64(i+1)))
	}
	q := series(3, 9)[:1]
	collect := func(w *Walker) [][2]int {
		var out [][2]int
		for {
			e, p, ok := w.Next()
			if !ok {
				break
			}
			out = append(out, [2]int{int(e.Video), p})
		}
		return out
	}
	w := ix.NewWalker(series(1, 2))
	collect(w) // drain with an unrelated query
	w.Reset(ix, q)
	got := collect(w)
	want := collect(ix.NewWalker(q))
	if len(got) != len(want) {
		t.Fatalf("reset walker yielded %d entries, fresh %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("yield %d: reset %v, fresh %v", i, got[i], want[i])
		}
	}
}

// TestKeysRebuildAndWalkWithoutSeries: Add's returned keys are the
// QueryKeys of the series; a forest re-indexed from them with AddKeys walks
// exactly as the one built with Add; and a walk seeded from keys alone
// (ResetWithKeys) yields what a walk from the series does, each entry
// naming its signature's position in the video's series.
func TestKeysRebuildAndWalkWithoutSeries(t *testing.T) {
	built, rebuilt := NewLSB(DefaultLSBOptions()), NewLSB(DefaultLSBOptions())
	stored := map[uint32]signature.Series{}
	for i := 0; i < 8; i++ {
		s := series(i%5, int64(i+1))
		keys := built.Add(uint32(i), s)
		if !slices.Equal(keys, built.QueryKeys(s)) {
			t.Fatalf("video %d: Add returned keys other than QueryKeys", i)
		}
		rebuilt.AddKeys(uint32(i), keys)
		stored[uint32(i)] = s
	}
	collect := func(w *Walker) [][3]int {
		var out [][3]int
		for {
			e, p, ok := w.Next()
			if !ok {
				break
			}
			if int(e.Ord) >= len(stored[e.Video]) {
				t.Fatalf("entry %+v: position past the video's %d signatures", e, len(stored[e.Video]))
			}
			out = append(out, [3]int{int(e.Video), int(e.Ord), p})
		}
		return out
	}
	for qi, q := range []signature.Series{series(2, 50)[:1], series(4, 81), stored[3]} {
		want := collect(built.NewWalker(q))
		var w Walker
		w.ResetWithKeys(rebuilt, built.QueryKeys(q))
		if got := collect(&w); !slices.Equal(got, want) {
			t.Fatalf("query %d: the keys-only walk over the rebuilt forest yielded %d entries unlike the series walk's %d", qi, len(got), len(want))
		}
	}
}

// TestEmbedOnceKeysMatchPerTreeKeys holds the keying path to the per-tree
// reference it replaced: every tree's key of every signature equals
// HashFamily.Key, which embeds the signature afresh for that tree. Forests
// of one to four trees, empty and single-cuboid signatures, and a walker
// re-keying through the same scratch all agree.
func TestEmbedOnceKeysMatchPerTreeKeys(t *testing.T) {
	single := signature.Series{
		{Cuboids: []signature.Cuboid{{V: 3.5, Mu: 1}}},
		{},
		{Cuboids: []signature.Cuboid{{V: -70, Mu: 0.25}, {V: 70, Mu: 0.75}}},
	}
	for trees := 1; trees <= 4; trees++ {
		opts := DefaultLSBOptions()
		opts.Trees = trees
		opts.Seed = int64(trees)
		ix := NewLSB(opts)
		var w Walker
		for i, q := range []signature.Series{series(1, 3), series(4, 9), single, nil} {
			var want []uint64
			for _, sig := range q {
				v, mu := sig.Values()
				for _, hf := range ix.hfs {
					want = append(want, hf.Key(ix.emb, v, mu))
				}
			}
			if got := ix.QueryKeys(q); !slices.Equal(got, want) || cap(got) != len(q)*trees {
				t.Fatalf("%d trees, series %d: QueryKeys = %x (cap %d), per-tree keys %x", trees, i, got, cap(got), want)
			}
			w.Reset(ix, q)
			if !slices.Equal(w.keys, want) {
				t.Fatalf("%d trees, series %d: walker keys %x, per-tree keys %x", trees, i, w.keys, want)
			}
		}
	}
}

// posting is one (video, count) entry of an inverted file.
type posting struct{ id, count uint32 }

// postingsOf reads dimension d back as (video, count) pairs.
func postingsOf(iv *Inverted, d int) []posting {
	ids, counts := iv.Postings(d), iv.Counts(d)
	if len(ids) != len(counts) {
		panic(fmt.Sprintf("dim %d: %d ids, %d counts", d, len(ids), len(counts)))
	}
	var out []posting
	for j, id := range ids {
		out = append(out, posting{id, counts[j]})
	}
	return out
}

// referencePostings is what dimension d must hold for the live vectors:
// every video with v_d > 0 and its count, in index order.
func referencePostings(live map[uint32]social.Vector, d int) []posting {
	var out []posting
	for v, vec := range live {
		if d < len(vec) && vec[d] > 0 {
			out = append(out, posting{v, uint32(vec[d])})
		}
	}
	slices.SortFunc(out, func(a, b posting) int { return cmp.Compare(a.id, b.id) })
	return out
}

// TestInvertedAddUnion checks what Add posts: each touched dimension holds
// the video with its count, and re-adding a posted video rewrites the count
// rather than posting it twice.
func TestInvertedAddUnion(t *testing.T) {
	iv := NewInverted(4)
	iv.Add(0, social.Vector{1, 0, 2, 0})
	iv.Add(1, social.Vector{0, 3, 0, 0})
	iv.Add(2, social.Vector{0, 1, 1, 0})
	want := [][]posting{
		{{0, 1}},
		{{1, 3}, {2, 1}},
		{{0, 2}, {2, 1}},
		nil,
	}
	for d, w := range want {
		if got := postingsOf(iv, d); !slices.Equal(got, w) {
			t.Errorf("dim %d = %v, want %v", d, got, w)
		}
	}
	// Re-adding a posted video rewrites its count in place of a second entry.
	iv.Add(2, social.Vector{0, 4, 1, 0})
	if got := postingsOf(iv, 1); !slices.Equal(got, []posting{{1, 3}, {2, 4}}) {
		t.Errorf("dim 1 after recount = %v, want [{1 3} {2 4}]", got)
	}
	if got := postingsOf(iv, 2); !slices.Equal(got, []posting{{0, 2}, {2, 1}}) {
		t.Errorf("dim 2 after unchanged re-add = %v", got)
	}
}

func TestInvertedRemove(t *testing.T) {
	iv := NewInverted(3)
	vec := social.Vector{1, 2, 0}
	iv.Add(5, vec)
	iv.Remove(5, vec)
	for d := 0; d < iv.Dims(); d++ {
		if iv.DimLen(d) != 0 || len(iv.Counts(d)) != 0 {
			t.Errorf("after remove dim %d: %v", d, postingsOf(iv, d))
		}
	}
}

func TestInvertedGrow(t *testing.T) {
	iv := NewInverted(2)
	iv.Grow(5)
	if iv.Dims() != 5 {
		t.Errorf("Dims = %d, want 5", iv.Dims())
	}
	iv.Add(9, social.Vector{0, 0, 0, 0, 2})
	if got := postingsOf(iv, 4); !slices.Equal(got, []posting{{9, 2}}) {
		t.Errorf("dim 4 = %v", got)
	}
	if iv.DimLen(4) != 1 {
		t.Errorf("DimLen(4) = %d, want 1", iv.DimLen(4))
	}
	iv.Grow(3) // shrink requests are ignored
	if iv.Dims() != 5 {
		t.Errorf("Dims after no-op Grow = %d", iv.Dims())
	}
}

func TestPostingsBounds(t *testing.T) {
	iv := NewInverted(2)
	if got := iv.Postings(-1); got != nil {
		t.Errorf("dim -1 = %v", got)
	}
	if got := iv.Postings(9); got != nil {
		t.Errorf("dim 9 = %v", got)
	}
	if iv.Counts(-1) != nil || iv.Counts(9) != nil {
		t.Error("Counts out of bounds should be nil")
	}
	if iv.DimLen(-1) != 0 || iv.DimLen(9) != 0 {
		t.Error("DimLen out of bounds should be 0")
	}
}

// TestInvertedSortedInvariant checks posting lists stay sorted and unique,
// with each entry's count the video's current v_d, under out-of-order adds,
// duplicate adds, recounts and interleaved removals.
func TestInvertedSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	iv := NewInverted(3)
	live := map[uint32]social.Vector{}
	for step := 0; step < 500; step++ {
		v := uint32(rng.Intn(64))
		old, ok := live[v]
		switch {
		case ok && rng.Intn(3) == 0:
			iv.Remove(v, old)
			delete(live, v)
			continue
		case ok && rng.Intn(2) == 0:
			// Recount: the same membership, new counts — no Remove first.
			vec := slices.Clone(old)
			for d := range vec {
				if vec[d] > 0 {
					vec[d] = float64(1 + rng.Intn(4))
				}
			}
			iv.Add(v, vec)
			live[v] = vec
			continue
		}
		vec := social.Vector{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))}
		if ok {
			iv.Remove(v, old)
		}
		iv.Add(v, vec)
		live[v] = vec
	}
	for d := 0; d < iv.Dims(); d++ {
		list := iv.Postings(d)
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] {
				t.Fatalf("dim %d not sorted/unique at %d: %v", d, i, list)
			}
		}
		if got, want := postingsOf(iv, d), referencePostings(live, d); !slices.Equal(got, want) {
			t.Fatalf("dim %d posts %v, live vectors say %v", d, got, want)
		}
	}
}

// TestUnionMatchesMapReference is the property test of the impact postings:
// for random histories of adds, recounts, removals and Grow-extended
// dimensions, every dimension holds exactly the (video, count) pairs a map
// of the live vectors implies, and Σ_d min(q_d, count) over the union of a
// query's touched lists — what step 1 accumulates per video — equals the
// same sum over the live vectors.
func TestUnionMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(6)
		iv := NewInverted(k)
		live := map[uint32]social.Vector{}
		n := rng.Intn(80)
		for i := 0; i < n; i++ {
			v := uint32(rng.Intn(100))
			vec := make(social.Vector, k)
			for d := range vec {
				if rng.Intn(3) == 0 {
					vec[d] = float64(1 + rng.Intn(3))
				}
			}
			// Unpost only the dimensions the video leaves, as the engine
			// does; Add rewrites the counts of the ones it keeps.
			if old, ok := live[v]; ok {
				gone := slices.Clone(old)
				for d := range gone {
					if vec[d] > 0 {
						gone[d] = 0
					}
				}
				iv.Remove(v, gone)
			}
			iv.Add(v, vec)
			live[v] = vec
		}
		for v, vec := range live {
			if rng.Intn(4) == 0 {
				iv.Remove(v, vec)
				delete(live, v)
			}
		}
		if rng.Intn(2) == 0 {
			k += 2
			iv.Grow(k)
			v := uint32(200 + trial)
			vec := make(social.Vector, k)
			vec[k-1] = 1
			iv.Add(v, vec)
			live[v] = vec
		}
		for d := 0; d < k; d++ {
			if got, want := postingsOf(iv, d), referencePostings(live, d); !slices.Equal(got, want) {
				t.Fatalf("trial %d dim %d: %v, want %v", trial, d, got, want)
			}
		}

		q := make(social.Vector, k)
		for d := range q {
			if rng.Intn(2) == 0 {
				q[d] = float64(rng.Intn(3)) // zero entries must not contribute
			}
		}
		got := map[uint32]uint32{}
		for d, x := range q {
			if x <= 0 {
				continue
			}
			for _, p := range postingsOf(iv, d) {
				got[p.id] += min(uint32(x), p.count)
			}
		}
		want := map[uint32]uint32{}
		for v, vec := range live {
			for d := 0; d < k && d < len(vec); d++ {
				if m := min(q[d], vec[d]); m > 0 {
					want[v] += uint32(m)
				}
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("trial %d: accumulated Σmin %v, want %v", trial, got, want)
		}
	}
}

// TestInvertedCloneIsolation verifies the copy-on-write sharing: mutations on
// a clone never leak into the original's posting lists or counts and vice
// versa, and a count change without a membership change copies exactly the
// one list it lands in.
func TestInvertedCloneIsolation(t *testing.T) {
	iv := NewInverted(3)
	iv.Add(1, social.Vector{1, 1, 2})
	iv.Add(3, social.Vector{1, 0, 1})

	cp := iv.Clone()
	cp.Add(2, social.Vector{1, 1, 0})
	cp.Remove(3, social.Vector{1, 0, 0})

	if got := postingsOf(iv, 0); !slices.Equal(got, []posting{{1, 1}, {3, 1}}) {
		t.Errorf("original dim 0 changed by clone mutation: %v", got)
	}
	if got := postingsOf(cp, 0); !slices.Equal(got, []posting{{1, 1}, {2, 1}}) {
		t.Errorf("clone dim 0 = %v, want [{1 1} {2 1}]", got)
	}

	// Mutating the original after cloning must not disturb the clone either.
	iv.Add(0, social.Vector{0, 1})
	if got := postingsOf(cp, 1); !slices.Equal(got, []posting{{1, 1}, {2, 1}}) {
		t.Errorf("clone dim 1 changed by original mutation: %v", got)
	}

	// A recount on a fresh clone: dimension 2's count of video 1 changes,
	// its membership does not. Only that list's counts are copied; the
	// frozen side keeps its list and its count.
	frozen := cp
	next := frozen.Clone()
	before := [][]uint32{frozen.Postings(0), frozen.Postings(1), frozen.Postings(2)}
	beforeCounts := [][]uint32{frozen.Counts(0), frozen.Counts(1), frozen.Counts(2)}
	next.Add(1, social.Vector{1, 1, 5})
	if got := postingsOf(next, 2); !slices.Equal(got, []posting{{1, 5}, {3, 1}}) {
		t.Fatalf("clone dim 2 after recount = %v, want [{1 5} {3 1}]", got)
	}
	if got := postingsOf(frozen, 2); !slices.Equal(got, []posting{{1, 2}, {3, 1}}) {
		t.Errorf("frozen dim 2 changed by clone recount: %v", got)
	}
	// Under -race: readers of the frozen side run while the clone keeps
	// recounting, so a write into a shared list would be a reported race.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 200 {
			if got := postingsOf(frozen, 2); got[0] != (posting{1, 2}) {
				t.Errorf("frozen dim 2 head = %v during clone recounts", got[0])
				return
			}
		}
	}()
	for c := range 200 {
		next.Add(1, social.Vector{1, 1, float64(6 + c%3)})
	}
	wg.Wait()
	next.Add(1, social.Vector{1, 1, 5})
	for d := 0; d < 3; d++ {
		sameIDs := &next.Postings(d)[0] == &before[d][0]
		sameCounts := &next.Counts(d)[0] == &beforeCounts[d][0]
		if !sameIDs || sameCounts != (d != 2) {
			t.Errorf("dim %d: ids shared %v, counts shared %v after a recount of dim 2; want ids shared, counts shared = %v",
				d, sameIDs, sameCounts, d != 2)
		}
	}
}

// TestRecountOwnedZeroAlloc pins an owned list's recount — the step every
// re-vectorized video of a batch takes after the first — to an in-place
// rewrite: no allocation, whatever the list length.
func TestRecountOwnedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	iv := NewInverted(4)
	for i := 0; i < 200; i++ {
		vec := social.Vector{0, 0, 0, 0}
		vec[i%4] = 1
		vec[(i+1)%4] = 1
		iv.Add(uint32(i), vec)
	}
	iv = iv.Clone()
	a, b := social.Vector{2, 3, 0, 0}, social.Vector{1, 1, 0, 0}
	iv.Add(0, a) // the first recount after the clone owns the lists
	allocs := testing.AllocsPerRun(100, func() {
		iv.Add(0, b)
		iv.Add(0, a)
	})
	if allocs != 0 {
		t.Errorf("recount allocates %v per run, want 0", allocs)
	}
	if got := postingsOf(iv, 1); got[0] != (posting{0, 3}) {
		t.Errorf("dim 1 head = %v, want {0 3}", got[0])
	}
}

func BenchmarkWalkerNext(b *testing.B) {
	ix := NewLSB(DefaultLSBOptions())
	for i := 0; i < 50; i++ {
		ix.Add(uint32(i%20), series(i%10, int64(i)))
	}
	q := series(3, 999)
	b.ResetTimer()
	w := ix.NewWalker(q)
	for i := 0; i < b.N; i++ {
		if _, _, ok := w.Next(); !ok {
			w.Reset(ix, q)
		}
	}
}

// The forest's value: recall of the true nearest signature improves with
// more trees at a fixed probe budget.
func TestForestImprovesRecall(t *testing.T) {
	mk := func(trees int) *LSB {
		o := DefaultLSBOptions()
		o.Trees = trees
		o.Seed = 17
		return NewLSB(o)
	}
	single, forest := mk(1), mk(4)
	for i := 0; i < 12; i++ {
		s := series(i%6, int64(i+1))
		single.Add(uint32(i), s)
		forest.Add(uint32(i), s)
	}
	recall := func(ix *LSB) int {
		hits := 0
		for probe := 0; probe < 10; probe++ {
			q := series(probe%6, int64(probe+1)) // identical to an indexed video
			w := ix.NewWalker(q[:1])
			for pops := 0; pops < 3; pops++ {
				e, _, ok := w.Next()
				if !ok {
					break
				}
				if e.Video == uint32(probe) {
					hits++
					break
				}
			}
		}
		return hits
	}
	if rs, rf := recall(single), recall(forest); rf < rs {
		t.Errorf("forest recall %d below single-tree recall %d", rf, rs)
	}
}
