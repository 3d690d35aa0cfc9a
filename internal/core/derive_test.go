package core

import (
	"math/rand"
	"slices"
	"testing"

	"videorec/internal/community"
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
	got := r.DeriveConnections(batch)

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
			participants[u] = true
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
	if len(participants) <= 724 {
		t.Fatalf("batch has %d participants; the packed-key path needs more than 724", len(participants))
	}
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
