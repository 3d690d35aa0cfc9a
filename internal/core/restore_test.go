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

// serialRestore is the serial reference restore: IngestSeries of each
// record's rebuilt series in Records order, then the snapshot's graph, grown
// edge by edge and compacted, and its partition from a name-keyed map.
func serialRestore(t *testing.T, s *Snapshot) *Recommender {
	t.Helper()
	r := NewRecommender(s.Options)
	for _, rs := range s.Records {
		r.IngestSeries(rs.ID, rs.Compiled.Series(), rs.Desc)
	}
	g := community.NewGraph()
	for _, u := range s.Users {
		g.AddUser(u)
	}
	for i, k := range s.EdgeKeys {
		g.AddEdgeWeight(s.Users[k>>32], s.Users[uint32(k)], s.EdgeWeights[i])
	}
	g.Compact()
	assign := map[string]int{}
	for i, c := range s.Assign {
		if c >= 0 {
			assign[s.Users[i]] = int(c)
		}
	}
	r.UseSocial(newSocial(g, community.NewPartition(g.UserTable(), s.K, s.Dim, s.LightestIntra, assign)))
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
		case !g.Compiled.Identical(w.Compiled):
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

// TestRestoreMatchesSerialIngest: FromSnapshot keys records on GOMAXPROCS
// goroutines and installs them in Records order. At GOMAXPROCS 1 and 4 it
// must build exactly what a serial IngestSeries of the same records does,
// with Records shuffled so only their order can set the dense ids.
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

// TestRestoreRejectsBadOrder: the records' order is the ingestion order, so
// one that lists an id twice is an error. Records [a, a] must not load one
// clip and silently drop the other.
func TestRestoreRejectsBadOrder(t *testing.T) {
	rec := func(id string) RecordSnapshot {
		series := signature.Series{{Cuboids: []signature.Cuboid{{V: 1, Mu: 1}}}}
		return RecordSnapshot{ID: id, Compiled: signature.CompileSeries(series), Desc: social.NewDescriptor("u")}
	}
	for _, records := range [][]RecordSnapshot{{rec("a"), rec("a")}, {rec("a"), rec("b"), rec("a")}} {
		r, err := FromSnapshot(&Snapshot{Options: DefaultOptions(), Records: records})
		if err == nil {
			t.Errorf("%d records listing a twice loaded %d clips", len(records), r.Len())
			continue
		}
		if !strings.Contains(err.Error(), `lists "a" twice`) {
			t.Errorf("error %q, want it to name the repeated id", err)
		}
	}
	ok := &Snapshot{Options: DefaultOptions(), Records: []RecordSnapshot{rec("b"), rec("a")}}
	r, err := FromSnapshot(ok)
	if err != nil || r.Len() != 2 || !slices.Equal(r.SortedIDs(), []string{"a", "b"}) {
		t.Fatalf("a permuted order failed to load: %v", err)
	}
	if v := r.Freeze(); !slices.Equal(v.orderIDs(), []string{"b", "a"}) {
		t.Fatalf("restored ingestion order %v, want [b a]", v.orderIDs())
	}
}
