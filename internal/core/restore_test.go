package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"videorec/internal/community"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// sameFloatBits reports whether a and b hold the same float64s bit for bit.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameCompiled reports whether two compiled series are equal bit for bit:
// every signature's sorted values and weights, mass and validity, every
// sketch, and the sort permutations (through the rebuilt raw series).
func sameCompiled(a, b *signature.CompiledSeries) bool {
	if len(a.Sigs) != len(b.Sigs) || len(a.Sketches) != len(b.Sketches) {
		return false
	}
	for i := range a.Sigs {
		x, y := &a.Sigs[i], &b.Sigs[i]
		if !sameFloatBits(x.V, y.V) || !sameFloatBits(x.W, y.W) ||
			math.Float64bits(x.Mass) != math.Float64bits(y.Mass) || x.OK != y.OK {
			return false
		}
		p, q := &a.Sketches[i], &b.Sketches[i]
		if math.Float64bits(p.Mean) != math.Float64bits(q.Mean) || !sameFloatBits(p.Q[:], q.Q[:]) {
			return false
		}
	}
	sa, sb := a.Series(), b.Series()
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if !slices.EqualFunc(sa[i].Cuboids, sb[i].Cuboids, func(x, y signature.Cuboid) bool {
			return math.Float64bits(x.V) == math.Float64bits(y.V) && math.Float64bits(x.Mu) == math.Float64bits(y.Mu)
		}) {
			return false
		}
	}
	return true
}

// serialRestore is the serial reference restore: IngestSeries of each
// record in Order, then the snapshot's graph and partition.
func serialRestore(t *testing.T, s *Snapshot) *Recommender {
	t.Helper()
	byID := map[string]RecordSnapshot{}
	for _, rs := range s.Records {
		byID[rs.ID] = rs
	}
	r := NewRecommender(s.Options)
	for _, id := range s.Order {
		rs := byID[id]
		r.IngestSeries(id, rs.Series, social.NewDescriptor("", rs.Users...))
	}
	g := community.GraphFromEdges(s.GraphUsers, s.GraphEdges)
	r.UseSocial(newSocial(g, community.NewPartition(g.UserTable(), s.K, s.Dim, s.LightestIntra, s.Assign)))
	return r
}

// walkAll is every (entry, common-prefix) pair the LSB walk from q yields.
func walkAll(v *View, q signature.Series) [][3]int {
	w := v.lsb.NewWalker(q)
	var out [][3]int
	for {
		e, p, ok := w.Next()
		if !ok {
			return out
		}
		out = append(out, [3]int{int(e.Video), int(e.Ord), p})
	}
}

// requireSameRestore fails unless got is want bit for bit: the id table,
// every record's compiled series, sketches, envelope, keys, descriptor and
// SAR vector, the view's mass, envelope and sketch columns, the partition,
// the LSB walk from every stored clip, and every stored clip's top-10.
func requireSameRestore(t *testing.T, label string, got, want *Recommender) {
	t.Helper()
	gv, wv := got.Freeze(), want.Freeze()
	if !slices.Equal(gv.ordered(), wv.ordered()) || gv.ids.Len() != wv.ids.Len() {
		t.Fatalf("%s: dense ids or ingestion order differ", label)
	}
	for _, i := range wv.ordered() {
		g, w := gv.recs.At(i), wv.recs.At(i)
		switch {
		case g.ID != w.ID || g.seq != w.seq:
			t.Fatalf("%s: slot %d holds %q (seq %d), want %q (seq %d)", label, i, g.ID, g.seq, w.ID, w.seq)
		case !sameCompiled(g.Compiled, w.Compiled):
			t.Fatalf("%s: %s: compiled series differ", label, w.ID)
		case g.Compiled.Envelope() != w.Compiled.Envelope() || gv.env.At(i) != wv.env.At(i):
			t.Fatalf("%s: %s: envelope %+v, want %+v", label, w.ID, gv.env.At(i), wv.env.At(i))
		case !slices.Equal(g.Keys, w.Keys) || cap(g.Keys) != cap(w.Keys):
			t.Fatalf("%s: %s: LSB keys %x, want %x", label, w.ID, g.Keys, w.Keys)
		case !slices.Equal(g.Desc.Users(), w.Desc.Users()) || !slices.Equal(g.Vec, w.Vec) || gv.mass.At(i) != wv.mass.At(i):
			t.Fatalf("%s: %s: descriptor or SAR vector differ", label, w.ID)
		case len(gv.sketches.At(i)) != len(g.Compiled.Sketches) || len(g.Compiled.Sketches) > 0 && &gv.sketches.At(i)[0] != &g.Compiled.Sketches[0]:
			t.Fatalf("%s: %s: the sketch column does not alias the record's sketches", label, w.ID)
		}
	}
	if err := got.social.agrees(want.social); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, i := range wv.ordered() {
		q := wv.recs.At(i).Compiled.Series()
		if !slices.Equal(walkAll(gv, q), walkAll(wv, q)) {
			t.Fatalf("%s: the LSB walk from %s differs", label, wv.recs.At(i).ID)
		}
		id := wv.recs.At(i).ID
		if g, w := gv.RecommendID(id, 10), wv.RecommendID(id, 10); !slices.EqualFunc(g, w, func(x, y Result) bool {
			return x.VideoID == y.VideoID && math.Float64bits(x.Score) == math.Float64bits(y.Score) &&
				math.Float64bits(x.Content) == math.Float64bits(y.Content) && math.Float64bits(x.Social) == math.Float64bits(y.Social)
		}) {
			t.Fatalf("%s: top-10 of %s = %+v, want %+v", label, id, g, w)
		}
	}
}

// TestRestoreMatchesSerialIngest: FromSnapshot compiles and keys records on
// GOMAXPROCS goroutines and installs them in Order. At GOMAXPROCS 1 and 4 it
// must build exactly what a serial IngestSeries of the same records does,
// with Records shuffled against Order so only Order can set the dense ids.
func TestRestoreMatchesSerialIngest(t *testing.T) {
	src, c := buildSmall(t)
	ids := src.SortedIDs()
	src.ApplyUpdates(map[string][]string{ids[0]: {c.Users[2], "newcomer"}, ids[5]: {c.Users[7], c.Users[9]}})
	src.RemoveVideo(ids[3])
	snap := src.Snapshot()
	rand.New(rand.NewSource(3)).Shuffle(len(snap.Records), func(i, j int) {
		snap.Records[i], snap.Records[j] = snap.Records[j], snap.Records[i]
	})
	want := serialRestore(t, snap)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := FromSnapshot(snap)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRestore(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, want)
	}
}

// TestRestoreRejectsBadOrder: a snapshot whose Order is not a permutation of
// its records' ids is an error. Order [a, a] over records [a, b] must not
// load one clip and silently drop b.
func TestRestoreRejectsBadOrder(t *testing.T) {
	rec := func(id string) RecordSnapshot {
		return RecordSnapshot{ID: id, Series: signature.Series{{Cuboids: []signature.Cuboid{{V: 1, Mu: 1}}}}, Users: []string{"u"}}
	}
	for _, tc := range []struct {
		name    string
		records []RecordSnapshot
		order   []string
		want    string
	}{
		{"duplicate", []RecordSnapshot{rec("a"), rec("b")}, []string{"a", "a"}, `lists "a" twice`},
		{"missing", []RecordSnapshot{rec("a"), rec("b")}, []string{"a"}, "order (1) and records (2) disagree"},
		{"unknown", []RecordSnapshot{rec("a"), rec("b")}, []string{"a", "x"}, `unknown id "x"`},
		{"duplicate record", []RecordSnapshot{rec("a"), rec("a")}, []string{"a", "b"}, `unknown id "b"`},
	} {
		s := &Snapshot{Options: DefaultOptions(), Records: tc.records, Order: tc.order}
		r, err := FromSnapshot(s)
		if err == nil {
			t.Errorf("%s: order %v over %d records loaded %d clips", tc.name, tc.order, len(tc.records), r.Len())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to name %q", tc.name, err, tc.want)
		}
	}
	ok := &Snapshot{Options: DefaultOptions(), Records: []RecordSnapshot{rec("a"), rec("b")}, Order: []string{"b", "a"}}
	r, err := FromSnapshot(ok)
	if err != nil || r.Len() != 2 || !slices.Equal(r.SortedIDs(), []string{"a", "b"}) {
		t.Fatalf("a permuted Order failed to load: %v", err)
	}
}
