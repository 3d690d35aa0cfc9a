package oracle

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"videorec/internal/community"
	"videorec/internal/social"
)

func TestNaiveJaccardMatchesLinear(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		mk := func(seed uint16) social.Descriptor {
			rng := rand.New(rand.NewSource(int64(seed)))
			var us []string
			for i := 0; i < rng.Intn(12); i++ {
				us = append(us, fmt.Sprintf("u%d", rng.Intn(15)))
			}
			return social.NewDescriptor("", us...)
		}
		a, b := mk(seedA), mk(seedB)
		return naiveJaccard(a, b) == social.Jaccard(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveJaccardEdgeCases(t *testing.T) {
	empty := social.NewDescriptor("")
	if got := naiveJaccard(empty, empty); got != 0 {
		t.Errorf("empty naive = %g", got)
	}
	a := social.NewDescriptor("", "x")
	if got := naiveJaccard(a, a); got != 1 {
		t.Errorf("self naive = %g", got)
	}
}

// Every measure scores every stored clip but the excluded query; the
// dictionary scan maps users as the partition does, so SAR and SARDictionary
// agree bit for bit; and ω = 0 and ω = 1 rank by content and social
// relevance alone.
func TestRankScoresEveryClip(t *testing.T) {
	users := []string{"a", "b", "c", "d", "e", "f"}
	g := community.NewGraph()
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			if (i < 3) == (j < 3) {
				g.AddEdgeWeight(users[i], users[j], 2)
			}
		}
	}
	g.AddEdgeWeight("c", "d", 1)
	part := community.ExtractSubCommunities(g, 2)
	var recs []Record
	for i := 0; i < 8; i++ {
		recs = append(recs, Record{
			ID:   fmt.Sprintf("v%d", i),
			Desc: social.NewDescriptor(users[i%len(users)], users[(i*5+1)%len(users)], fmt.Sprintf("stranger%d", i)),
		})
	}
	o := New(recs, part, 0.5)
	q, ok := o.Query("v3")
	if !ok {
		t.Fatal("stored clip has no query")
	}
	for _, s := range []Social{SAR, SARDictionary, Exact} {
		if got := o.Rank(q, 0.7, s, 100, "v3"); len(got) != len(recs)-1 {
			t.Errorf("measure %d ranked %d clips, want %d", s, len(got), len(recs)-1)
		}
	}
	sar, dict := o.Rank(q, 0.7, SAR, 100), o.Rank(q, 0.7, SARDictionary, 100)
	for i := range sar {
		if sar[i] != dict[i] {
			t.Fatalf("rank %d: partition lookup %+v, dictionary scan %+v", i, sar[i], dict[i])
		}
	}
	for _, r := range o.Rank(q, 1, Exact, 100) {
		if r.Score != r.Social {
			t.Errorf("ω = 1: score %g != social %g", r.Score, r.Social)
		}
	}
	for _, r := range o.Rank(q, 0, Exact, 100) {
		if r.Score != r.Content {
			t.Errorf("ω = 0: score %g != content %g", r.Score, r.Content)
		}
	}
}
