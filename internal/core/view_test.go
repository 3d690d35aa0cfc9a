package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"videorec/internal/dataset"
	"videorec/internal/signature"
)

// buildSmallTweaked is buildSmall plus an options hook applied before the
// recommender is constructed.
func buildSmallTweaked(t testing.TB, tweak func(*Options)) (*Recommender, *dataset.Collection) {
	t.Helper()
	o := dataset.DefaultOptions()
	o.Hours = 4
	o.Users = 150
	o.Seed = 11
	c := dataset.Generate(o)
	opts := DefaultOptions()
	opts.K = 12
	if tweak != nil {
		tweak(&opts)
	}
	r := NewRecommender(opts)
	for _, it := range c.Items {
		v := it.Render(o.Synth)
		r.IngestVideo(it.ID, v, descriptorOf(c, it))
	}
	r.BuildSocial()
	return r, c
}

// Parallel step-3 refinement must be byte-identical to the serial path: a
// round's scores land in pre-assigned slots and a candidate is skipped only
// when its bound proves it cannot rank, so worker scheduling cannot perturb a
// single bit of the ranking. Unbounded budgets make every stored clip a
// candidate, well past minParallelRefine; the CR (ω = 0) and SR (ω = 1)
// weights bound refinement differently from the fused default.
func TestParallelRefinementMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		omega float64
	}{{"CSF-SAR-H", 0.7}, {"CR", 0}, {"SR", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) (*Recommender, *dataset.Collection) {
				return buildSmallTweaked(t, func(o *Options) {
					o.Omega = tc.omega
					o.CandidateLimit, o.ContentProbe = unbounded, unbounded
					o.RefineWorkers = workers
				})
			}
			serial, c := build(1)
			parallel, _ := build(8)
			for _, q := range c.Queries {
				src := q.Sources[0]
				a := serial.RecommendID(src, 15)
				b := parallel.RecommendID(src, 15)
				if len(a) != len(b) {
					t.Fatalf("%s: %d serial vs %d parallel results", src, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s rank %d: serial %+v vs parallel %+v", src, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// frozenState is everything a reader can observe through a view, copied out
// so that a later write into anything the view still references shows up as
// a difference: per record the descriptor members and SAR vector, the
// user → sub-community lookups, every posting list with its counts, the mass
// and envelope columns, the ingestion order, the content index's whole walk around one
// query, and full RecommendCtx answers.
type frozenState struct {
	Len      int
	Order    []string
	Users    map[string][]string
	Vecs     map[string][]float64
	Look     map[string]int
	Postings [][]uint32
	Counts   [][]uint32
	Mass     []uint32
	Env      []signature.Envelope
	Walk     []uint32 // videos in LCP order, to exhaustion
	Answers  map[string][]Result
}

func captureFrozen(t *testing.T, v *View, users, queries []string) frozenState {
	t.Helper()
	st := frozenState{
		Len:     v.Len(),
		Order:   v.orderIDs(),
		Users:   map[string][]string{},
		Vecs:    map[string][]float64{},
		Look:    map[string]int{},
		Answers: map[string][]Result{},
	}
	for _, id := range st.Order {
		rec, ok := v.Record(id)
		if !ok {
			t.Fatalf("view lost record %s", id)
		}
		st.Users[id] = slices.Clone(rec.Desc.Users())
		st.Vecs[id] = slices.Clone(rec.Vec)
	}
	for _, u := range users {
		if cno, ok := v.table.Lookup(u); ok {
			st.Look[u] = cno
		}
	}
	for d := 0; d < v.inv.Dims(); d++ {
		st.Postings = append(st.Postings, slices.Clone(v.inv.Postings(d)))
		st.Counts = append(st.Counts, slices.Clone(v.inv.Counts(d)))
	}
	for _, m := range v.mass.All() {
		st.Mass = append(st.Mass, m)
	}
	for _, e := range v.env.All() {
		st.Env = append(st.Env, e)
	}
	for i, id := range queries {
		q, ok := v.QueryFor(id)
		if !ok {
			t.Fatalf("view lost query source %s", id)
		}
		if i == 0 {
			w := v.lsb.NewWalker(q.seriesOf())
			for e, _, ok := w.Next(); ok; e, _, ok = w.Next() {
				st.Walk = append(st.Walk, e.Video)
			}
		}
		res, _, err := v.RecommendCtx(context.Background(), q, 10, id)
		if err != nil {
			t.Fatal(err)
		}
		st.Answers[id] = res
	}
	return st
}

// A frozen view must be fully isolated from every mutation path — comment
// batches (with new users, and heavy enough to union and split
// sub-communities), ingest of new and of stored ids, removal, and a full
// social rebuild — through several generations of publishes: each write
// copies what it changes of the shared structures, so every published view
// keeps answering from the world as it was at its Freeze.
func TestFrozenViewIsolatedFromMutations(t *testing.T) {
	r, c := buildSmall(t)
	src := c.Queries[0].Sources[0]
	var queries []string
	for _, q := range c.Queries[:4] {
		queries = append(queries, q.Sources[0])
	}
	users := append(slices.Clone(c.Users), "cow-user-1", "cow-user-2", "nobody")

	type published struct {
		view *View
		want frozenState
	}
	var pubs []published
	publish := func() *View {
		v := r.Freeze()
		pubs = append(pubs, published{v, captureFrozen(t, v, users, queries)})
		return v
	}
	check := func(after string) {
		t.Helper()
		for g, p := range pubs {
			if got := captureFrozen(t, p.view, users, queries); !reflect.DeepEqual(got, p.want) {
				t.Fatalf("after %s: view of generation %d changed\n got %+v\nwant %+v", after, g, got, p.want)
			}
		}
	}

	view := publish()
	want := view.RecommendID(src, 10)
	if len(want) == 0 {
		t.Fatal("frozen view returned no recommendations")
	}

	// Comments: a new user, a known one, and two users of different
	// sub-communities sharing enough videos to be unioned.
	rep := r.ApplyUpdates(map[string][]string{src: {"cow-user-1", "cow-user-2", c.Users[0]}})
	if rep.VideosRevectorized == 0 {
		t.Fatal("updates were a no-op; test would prove nothing")
	}
	check("ApplyUpdates")
	publish()
	a, b := usersOfDifferentCommunities(t, r, c.Users)
	storm := map[string][]string{}
	for _, id := range view.orderIDs()[:12] {
		storm[id] = []string{a, b}
	}
	if rep := r.ApplyUpdates(storm); rep.Maintenance.Unions == 0 {
		t.Fatal("comment storm caused no union; the table-rewrite path went untested")
	}
	check("ApplyUpdates with a union")
	publish()

	// Removing a recommended video (not the query source) makes any leakage
	// into the views visible in the rankings.
	if !r.RemoveVideo(want[0].VideoID) {
		t.Fatalf("failed to remove %s", want[0].VideoID)
	}
	check("RemoveVideo")
	publish()

	it := c.Items[0]
	r.IngestVideo("cow-fresh-clip", it.Render(c.Opts.Synth), descriptorOf(c, it))
	check("IngestVideo of a new id")
	rec, _ := view.Record(queries[1])
	r.IngestSeries(queries[1], rec.Compiled.Series()[:1], rec.Desc.Add("cow-user-3"))
	check("IngestSeries over a stored id")
	r.BuildSocial()
	check("BuildSocial")
	publish()
	r.ApplyUpdates(map[string][]string{"cow-fresh-clip": {c.Users[1], "cow-user-4"}})
	check("ApplyUpdates after the rebuild")

	if _, ok := view.Record("cow-fresh-clip"); ok {
		t.Fatal("ingested clip leaked into frozen view")
	}

	// The recommender itself sees the new world.
	if r.Len() != view.Len() { // -1 removed, +1 ingested
		t.Fatalf("recommender Len = %d, want %d", r.Len(), view.Len())
	}
	if _, ok := r.Record(want[0].VideoID); ok {
		t.Fatal("removed clip still in recommender")
	}
	if _, ok := r.Record("cow-fresh-clip"); !ok {
		t.Fatal("ingested clip missing from recommender")
	}
}

// Readers keep querying one frozen view — answers compared on every pass —
// while the writer publishes generation after generation on top of it. Under
// -race any write into a node, chain, list, page or record the old view
// still reaches is reported.
func TestFrozenViewReadWhileWriterPublishes(t *testing.T) {
	r, c := buildSmall(t)
	view := r.Freeze()
	var queries []string
	for _, q := range c.Queries[:3] {
		queries = append(queries, q.Sources[0])
	}
	want := captureFrozen(t, view, c.Users, queries).Answers

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range queries {
					q, _ := view.QueryFor(id)
					got, _, err := view.RecommendCtx(context.Background(), q, 10, id)
					if err != nil || !reflect.DeepEqual(got, want[id]) {
						t.Errorf("frozen view's answer for %s changed under the writer (err %v)", id, err)
						return
					}
				}
			}
		}()
	}
	ids := view.orderIDs()
	it := c.Items[0]
	series := r.ExtractSeries(it.Render(c.Opts.Synth))
	for gen := 0; gen < 30; gen++ {
		switch gen % 3 {
		case 0:
			r.ApplyUpdates(map[string][]string{ids[gen%len(ids)]: {c.Users[gen%len(c.Users)], fmt.Sprintf("reader-%d", gen)}})
		case 1:
			r.IngestSeries(fmt.Sprintf("gen-%d", gen), series, descriptorOf(c, it))
			r.BuildSocial()
		case 2:
			r.RemoveVideo(fmt.Sprintf("gen-%d", gen-1))
		}
		r.Freeze()
	}
	close(stop)
	wg.Wait()
}

// usersOfDifferentCommunities picks two known users the partition keeps
// apart.
func usersOfDifferentCommunities(t *testing.T, r *Recommender, users []string) (string, string) {
	t.Helper()
	first, firstCno := "", 0
	for _, u := range users {
		cno, ok := r.Partition().Lookup(u)
		switch {
		case !ok:
		case first == "":
			first, firstCno = u, cno
		case cno != firstCno:
			return first, u
		}
	}
	t.Fatal("every known user sits in one sub-community")
	return "", ""
}

// Freeze is O(1): a second Freeze with no intervening mutation returns the
// same view; a mutation then swaps in a clone.
func TestFreezeReturnsSameViewUntilMutation(t *testing.T) {
	r, c := buildSmall(t)
	v1 := r.Freeze()
	if v2 := r.Freeze(); v2 != v1 {
		t.Fatal("Freeze without mutation returned a different view")
	}
	r.ApplyUpdates(map[string][]string{c.Queries[0].Sources[0]: {"someone-new"}})
	if v3 := r.Freeze(); v3 == v1 {
		t.Fatal("Freeze after mutation returned the stale view")
	}
}
