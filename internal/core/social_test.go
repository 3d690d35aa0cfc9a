package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// spreadRecords re-ingests r's records into n fresh recommenders, record i
// of the ingestion order on recommender i%n, and installs one Social built
// over the union of their audiences in all of them — a sharded deployment
// of r's corpus. It returns the recommenders and each video's holder.
func spreadRecords(r *Recommender, n int) ([]*Recommender, map[string]int) {
	shards := make([]*Recommender, n)
	for i := range shards {
		shards[i] = NewRecommender(r.opts)
	}
	holder := map[string]int{}
	for k, i := range r.state.ordered() {
		rec := r.state.recs.At(i)
		shards[k%n].IngestSeries(rec.ID, rec.Compiled.Series(), rec.Desc)
		holder[rec.ID] = k % n
	}
	global := map[string][]string{}
	for _, s := range shards {
		for vid, aud := range s.CollectAudiences() {
			global[vid] = aud
		}
	}
	s := NewSocial(r.opts, global)
	for _, sh := range shards {
		sh.UseSocial(s)
	}
	return shards, holder
}

// Recommenders sharing one Social, each batch derived once from the
// holders' records and maintained once, stay in lockstep with a single
// recommender through unions, splits and unknown users: the social states
// agree, and every holder's view maps every user to the same
// sub-community and holds the same descriptor and vector for each record.
func TestSharedSocialLockstep(t *testing.T) {
	single, c := buildSmall(t)
	shards, holder := spreadRecords(single, 3)
	s := shards[0].Social()
	if err := s.agrees(single.Social()); err != nil {
		t.Fatalf("shared build: %v", err)
	}
	resolve := func(id string) *Record {
		if i, ok := holder[id]; ok {
			rec, _ := shards[i].Record(id)
			return rec
		}
		return nil
	}
	rng := rand.New(rand.NewSource(21))
	ids := single.SortedIDs()
	users := slices.Clone(c.Users)
	unions, splits := 0, 0
	for step := 0; step < 10; step++ {
		batch := map[string][]string{}
		if step%3 == 0 {
			a, b := usersOfDifferentCommunities(t, single, c.Users)
			for _, id := range ids[:10] {
				batch[id] = []string{a, b}
			}
		}
		for k := 0; k < 6; k++ {
			stranger := fmt.Sprintf("stranger-%d-%d", step, k)
			users = append(users, stranger)
			id := ids[rng.Intn(len(ids))]
			batch[id] = append(batch[id], c.Users[rng.Intn(len(c.Users))], stranger)
		}

		want := single.DeriveConnections(batch)
		edges := shards[0].DeriveFrom(batch, resolve)
		if !slices.Equal(edges, want) {
			t.Fatalf("step %d: derivation from the holders diverges", step)
		}
		rep := single.ApplyEdges(want, batch)
		shared := s.Maintain(edges)
		revectorized := 0
		for i, sh := range shards {
			local := map[string][]string{}
			for id, us := range batch {
				if holder[id] == i {
					local[id] = us
				}
			}
			revectorized += sh.ApplyComments(local)
		}
		if shared.Maintenance.Unions != rep.Maintenance.Unions || shared.Maintenance.Splits != rep.Maintenance.Splits ||
			revectorized != rep.VideosRevectorized {
			t.Fatalf("step %d: shared pass %+v re-vectorized %d, single %+v", step, shared.Maintenance, revectorized, rep)
		}
		unions += rep.Maintenance.Unions
		splits += rep.Maintenance.Splits
		if err := s.agrees(single.Social()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		ref := single.Freeze()
		for i, sh := range shards {
			v := sh.Freeze()
			if v.part.Dim != ref.part.Dim || !reflect.DeepEqual(v.part.AssignMap(), ref.part.AssignMap()) {
				t.Fatalf("step %d: shard %d partition differs", step, i)
			}
			for _, u := range users {
				gc, gok := v.table.Lookup(u)
				wc, wok := ref.table.Lookup(u)
				if gc != wc || gok != wok {
					t.Fatalf("step %d: shard %d maps %s to %d (%v), single to %d (%v)", step, i, u, gc, gok, wc, wok)
				}
				// The table maps users as the maintained partition does.
				if pc, pok := s.part.Lookup(u); gc != pc || gok != pok {
					t.Fatalf("step %d: shard %d maps %s to %d (%v), the maintained partition to %d (%v)", step, i, u, gc, gok, pc, pok)
				}
			}
			for _, id := range v.SortedIDs() {
				got, want := v.record(id), ref.record(id)
				if !slices.Equal(got.Desc.Users(), want.Desc.Users()) || !slices.Equal(got.Vec, want.Vec) {
					t.Fatalf("step %d: shard %d record %s differs", step, i, id)
				}
			}
		}
	}
	if unions == 0 || splits == 0 {
		t.Fatalf("history had %d unions and %d splits; the test needs both", unions, splits)
	}
}

// ShareSocial adopts another recommender's social state only when the two
// agree; a copy that has maintained one batch more is refused and keeps its
// own state.
func TestShareSocialRefusesDivergentCopy(t *testing.T) {
	r, c := buildSmall(t)
	snap := r.Snapshot()
	restore := func() *Recommender {
		t.Helper()
		cp, err := FromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	lead, follower, ahead := restore(), restore(), restore()
	if err := follower.ShareSocial(lead.Social()); err != nil {
		t.Fatalf("identical restores: %v", err)
	}
	if follower.Social() != lead.Social() {
		t.Fatal("follower kept its own social state")
	}
	a, b := usersOfDifferentCommunities(t, ahead, c.Users)
	batch := map[string][]string{}
	for _, id := range ahead.SortedIDs()[:10] {
		batch[id] = []string{a, b}
	}
	ahead.ApplyUpdates(batch)
	own := ahead.Social()
	if err := ahead.ShareSocial(lead.Social()); err == nil {
		t.Fatal("a copy one batch ahead was shared")
	}
	if ahead.Social() != own {
		t.Fatal("a refused share replaced the social state")
	}
}
