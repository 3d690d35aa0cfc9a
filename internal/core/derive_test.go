package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"videorec/internal/community"
	"videorec/internal/dataset"
)

// Property: deriving a batch's edges with each commented video's record read
// from whichever recommender holds it — the sharded deployment's one global
// derivation — reproduces the single engine's derivation exactly, however
// the corpus is spread over 1–4 recommenders; and the reused count matrix
// never leaks one batch's counts into the next.
func TestDeriveFromOwnersMatchesSingleEngine(t *testing.T) {
	r, c := buildSmall(t)
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 20; trial++ {
		batch := map[string][]string{}
		for _, it := range c.Items {
			if rng.Intn(3) == 0 {
				users := make([]string, 1+rng.Intn(4))
				for i := range users {
					users[i] = c.Items[rng.Intn(len(c.Items))].Comments[0].User
				}
				batch[it.ID] = users
			}
		}
		batch["no-such-clip"] = []string{"ghost", c.Items[0].Comments[0].User}
		full := r.DeriveConnections(batch)
		if len(full) == 0 {
			continue
		}
		// r derives into the count matrix its earlier trials used, at a
		// different stride each time; a copy without one starts from zeroes.
		clean := *r
		clean.pairCounts = nil
		if got := clean.DeriveConnections(batch); !slices.Equal(got, full) {
			t.Fatalf("trial %d: reused count matrix changed the derivation:\ngot  %+v\nwant %+v", trial, full, got)
		}

		// Spread the corpus over 1–4 recommenders at random and derive once,
		// resolving every video on its holder.
		holders := make([]*Recommender, 1+rng.Intn(4))
		for i := range holders {
			holders[i] = NewRecommender(r.opts)
		}
		holder := map[string]*Recommender{}
		for _, i := range r.state.ordered() {
			rec := r.state.recs.At(i)
			h := holders[rng.Intn(len(holders))]
			h.IngestSeries(rec.ID, rec.Compiled.Series(), rec.Desc)
			holder[rec.ID] = h
		}
		got := holders[0].DeriveFrom(batch, func(id string) *Record {
			if h := holder[id]; h != nil {
				rec, _ := h.Record(id)
				return rec
			}
			return nil
		})
		if !slices.Equal(got, full) {
			t.Fatalf("trial %d: derivation over %d holders diverges from the single engine:\ngot  %+v\nwant %+v",
				trial, len(holders), got, full)
		}
	}
}

// pairCounts is DeriveFrom written out longhand over string pairs: one count
// per (fresh, old) and (fresh, fresh) pair of distinct non-empty names, for
// every video of the batch that r stores, with its fresh commenters
// deduplicated and its old audience capped as UIG construction caps it. It
// also returns how many distinct non-empty names take part, which decides
// DeriveFrom's accumulation path.
func pairCounts(r *Recommender, batch map[string][]string) (map[[2]string]float64, int) {
	want := map[[2]string]float64{}
	participants := map[string]bool{}
	for vid, fresh := range batch {
		rec, ok := r.Record(vid)
		if !ok {
			continue
		}
		fresh = community.DedupeUsers(fresh)
		old := capAudience(rec.Desc.Users(), r.opts.UIGMaxAudience)
		for _, u := range append(slices.Clone(fresh), old...) {
			if u != "" {
				participants[u] = true
			}
		}
		add := func(a, b string) {
			if a == b || a == "" || b == "" {
				return
			}
			if a > b {
				a, b = b, a
			}
			want[[2]string{a, b}]++
		}
		for i, u := range fresh {
			for _, v := range old {
				add(u, v)
			}
			for _, v := range fresh[i+1:] {
				add(u, v)
			}
		}
	}
	return want, len(participants)
}

// requirePairCounts checks a derived edge list against pairCounts: in
// (U, V) order, no pair twice, and every pair with its count.
func requirePairCounts(t *testing.T, got []community.Edge, want map[[2]string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("derived %d edges, pair count has %d", len(got), len(want))
	}
	for i, e := range got {
		if i > 0 && (got[i-1].U > e.U || got[i-1].U == e.U && got[i-1].V >= e.V) {
			t.Fatalf("edge %d %+v out of (U, V) order after %+v", i, e, got[i-1])
		}
		if w := want[[2]string{e.U, e.V}]; w != e.W {
			t.Fatalf("edge %+v: pair count %v", e, w)
		}
	}
}

// A batch with more distinct participants than the dense count matrix
// covers takes the packed-key path, which must produce the same sorted,
// run-length-counted edge list.
func TestDeriveFromLargeBatchMatchesPairCount(t *testing.T) {
	r, c := buildSmall(t)
	batch := map[string][]string{}
	for i, it := range c.Items {
		for k := 0; k < 26; k++ {
			batch[it.ID] = append(batch[it.ID], c.Users[(i*7+k)%len(c.Users)], "fresh-"+it.ID+"-"+string(rune('a'+k)))
		}
	}
	want, participants := pairCounts(r, batch)
	if participants <= 724 {
		t.Fatalf("batch has %d participants; the packed-key path needs more than 724", participants)
	}
	requirePairCounts(t, r.DeriveConnections(batch), want)
}

// deriveBatch is a seeded comment batch over c's videos drawing on n fresh
// names. Each commented video gets a list drawn with repetition from those
// names, the corpus's own users (who sit in old audiences too) and the
// empty name; one id names no video. Up to a few hundred fresh names the
// batch stays on the dense path, past about 700 it takes the packed one.
func deriveBatch(rng *rand.Rand, c *dataset.Collection, n int) map[string][]string {
	batch := map[string][]string{"no-such-clip": {"ghost", ""}}
	pool := max(n, 1)
	for _, it := range c.Items {
		if rng.Intn(4) == 0 {
			continue
		}
		users := make([]string, rng.Intn(4*pool/len(c.Items)+3))
		for i := range users {
			switch x := rng.Intn(10); {
			case x == 0:
				users[i] = ""
			case x < 3:
				users[i] = c.Users[rng.Intn(len(c.Users))]
			default:
				users[i] = fmt.Sprintf("fresh-%d", rng.Intn(pool))
			}
		}
		batch[it.ID] = users
	}
	return batch
}

// FuzzDeriveFrom holds DeriveFrom to pairCounts on seeded batches of up to
// 2,000 fresh names, over both accumulation paths. The recommender is
// shared, so each input also derives into the count matrix the inputs
// before it left behind.
func FuzzDeriveFrom(f *testing.F) {
	r, c := buildSmall(f)
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []uint16{0, 40, 300, 1500} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		batch := deriveBatch(rand.New(rand.NewSource(seed)), c, int(n%2000))
		want, _ := pairCounts(r, batch)
		requirePairCounts(t, r.DeriveConnections(batch), want)
	})
}
