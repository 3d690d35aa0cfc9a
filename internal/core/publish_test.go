package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"videorec/internal/signature"
	"videorec/internal/social"
)

const (
	synthFandoms = 8
	synthFans    = 60 // users per fandom
)

func synthUser(fandom, k int) string { return fmt.Sprintf("u%03d", fandom*synthFans+k%synthFans) }

// syntheticRecommender ingests clips spread over eight fandoms of sixty users
// each, two random signatures and six commenters per clip, and builds the
// social machinery. The generator is seeded, so a larger corpus extends a
// smaller one: the first n clips are the same clips.
func syntheticRecommender(t testing.TB, clips int) *Recommender {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	sig := func() signature.Signature {
		s := signature.Signature{Cuboids: make([]signature.Cuboid, 6)}
		for i := range s.Cuboids {
			s.Cuboids[i] = signature.Cuboid{V: 10 * rng.NormFloat64(), Mu: 1.0 / 6}
		}
		return s
	}
	opts := DefaultOptions()
	opts.K = 12
	r := NewRecommender(opts)
	for i := 0; i < clips; i++ {
		series := signature.Series{sig(), sig()}
		audience := make([]string, 6)
		for j := range audience {
			audience[j] = synthUser(i%synthFandoms, rng.Intn(synthFans))
		}
		r.IngestSeries(fmt.Sprintf("v%05d", i), series, social.NewDescriptor("", audience...))
	}
	r.BuildSocial()
	return r
}

// publishBytes is the heap allocated by one write plus the Freeze that
// publishes it.
func publishBytes(r *Recommender, write func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write()
	r.Freeze()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A publish costs what the write dirtied, not what the corpus holds: the
// same comment batch, and the same ingested clip, published over 1k and over
// 8k clips allocate within 1.5× of each other. (When the first write after a
// Freeze deep-copied the view, the larger corpus cost 4.4× and 6.9×.)
func TestPublishCostIndependentOfCorpus(t *testing.T) {
	// Quiet comments: fans commenting inside their own fandom, on clips both
	// corpora hold.
	batch := func(from int) map[string][]string {
		b := map[string][]string{}
		for i := from; i < from+32; i++ {
			b[fmt.Sprintf("v%05d", i)] = []string{synthUser(i%synthFandoms, i), synthUser(i%synthFandoms, 7*i+1)}
		}
		return b
	}
	rng := rand.New(rand.NewSource(6))
	clip := signature.Series{
		{Cuboids: []signature.Cuboid{{V: rng.NormFloat64(), Mu: 0.5}, {V: 9 * rng.NormFloat64(), Mu: 0.5}}},
		{Cuboids: []signature.Cuboid{{V: rng.NormFloat64(), Mu: 0.25}, {V: 9 * rng.NormFloat64(), Mu: 0.75}}},
	}

	var update, ingest [2]uint64
	for i, clips := range []int{1000, 8000} {
		r := syntheticRecommender(t, clips)
		r.Freeze()
		// Warm the writer's reusable buffers on a batch of its own.
		r.ApplyUpdates(batch(100))
		r.Freeze()
		var rep UpdateReport
		update[i] = publishBytes(r, func() { rep = r.ApplyUpdates(batch(0)) })
		if rep.VideosRevectorized != 32 || rep.DimensionsTouched != 0 {
			t.Fatalf("%d clips: batch re-vectorized %d videos and touched %d dimensions; the comparison needs a quiet batch of 32",
				clips, rep.VideosRevectorized, rep.DimensionsTouched)
		}
		ingest[i] = publishBytes(r, func() {
			r.IngestSeries("fresh-clip", clip, social.NewDescriptor(synthUser(3, 3), synthUser(3, 4)))
		})
	}
	t.Logf("ApplyUpdates+Freeze: %d B over 1k clips, %d B over 8k", update[0], update[1])
	t.Logf("IngestSeries+Freeze: %d B over 1k clips, %d B over 8k", ingest[0], ingest[1])
	if 2*update[1] > 3*update[0] {
		t.Errorf("a comment batch allocates %d B over 8k clips against %d B over 1k: more than 1.5×", update[1], update[0])
	}
	if 2*ingest[1] > 3*ingest[0] {
		t.Errorf("one ingested clip allocates %d B over 8k clips against %d B over 1k: more than 1.5×", ingest[1], ingest[0])
	}
}

// scanTouched is the scan the posting-list walk replaced: every record, every
// touched dimension.
func scanTouched(v *View, touched []int) []uint32 {
	var out []uint32
	for i, rec := range v.recs.All() {
		if rec == nil {
			continue
		}
		for _, d := range touched {
			if d < len(rec.Vec) && rec.Vec[d] > 0 {
				out = append(out, uint32(i))
				break
			}
		}
	}
	return out
}

// Finding the videos a changed dimension affects through that dimension's
// posting list must select exactly the videos the scan over every record
// did — posted ⇔ Vec[d] > 0 — at every step of a history in which
// sub-communities union, split and mint new dimensions, clips are removed
// and comments introduce unknown users.
func TestTouchedPostingsMatchRecordScan(t *testing.T) {
	r, c := buildSmall(t)
	rng := rand.New(rand.NewSource(21))
	ids := r.SortedIDs()
	unions, splits := 0, 0
	for step := 0; step < 12; step++ {
		batch := map[string][]string{}
		if step%3 == 0 {
			// Two users of different sub-communities meet on many videos.
			a, b := usersOfDifferentCommunities(t, r, c.Users)
			for _, id := range ids[:10] {
				batch[id] = []string{a, b}
			}
		}
		for k := 0; k < 6; k++ {
			id := ids[rng.Intn(len(ids))]
			batch[id] = append(batch[id], c.Users[rng.Intn(len(c.Users))], fmt.Sprintf("stranger-%d-%d", step, k))
		}
		if step == 5 {
			r.RemoveVideo(ids[len(ids)-1])
		}

		pre := r.Freeze()
		rep := r.ApplyUpdates(batch)
		unions += rep.Maintenance.Unions
		splits += rep.Maintenance.Splits
		touched := r.social.maint.Touched() // what the maintenance pass just reported

		// The selection ApplyEdges made, recomputed on the state it saw.
		walked := pre.touchedPostings(touched)
		slices.Sort(walked)
		walked = slices.Compact(walked)
		scanned := scanTouched(pre, touched)
		if !slices.Equal(walked, scanned) {
			t.Fatalf("step %d, touched %v: posting walk selects %v, record scan %v",
				step, touched, walked, scanned)
		}
		commented := 0
		for id := range batch {
			if i, ok := pre.index(id); ok && pre.recs.At(i) != nil {
				if _, found := slices.BinarySearch(scanned, i); !found {
					commented++
				}
			}
		}
		if rep.VideosRevectorized != len(scanned)+commented {
			t.Fatalf("step %d: %d videos re-vectorized, the record scan selects %d + %d commented",
				step, rep.VideosRevectorized, len(scanned), commented)
		}
		// And the invariant it rests on, dimension by dimension, afterwards.
		post := r.Freeze()
		for d := 0; d < post.inv.Dims(); d++ {
			if got, want := post.inv.Postings(d), scanTouched(post, []int{d}); !slices.Equal(got, want) {
				t.Fatalf("step %d: dimension %d posts %v, records with Vec[%d] > 0 are %v", step, d, got, d, want)
			}
		}
	}
	if unions == 0 || splits == 0 {
		t.Fatalf("history had %d unions and %d splits; the test needs both", unions, splits)
	}
}
