package core

import (
	"testing"
)

func TestRemoveVideoBasics(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	victim := r.state.orderIDs()[2]
	before := r.Len()
	if !r.RemoveVideo(victim) {
		t.Fatal("RemoveVideo returned false for existing id")
	}
	if r.RemoveVideo(victim) {
		t.Fatal("double remove succeeded")
	}
	if r.Len() != before-1 {
		t.Errorf("Len = %d, want %d", r.Len(), before-1)
	}
	if r.Tombstones() != 1 {
		t.Errorf("Tombstones = %d, want 1", r.Tombstones())
	}
	// The removed video never appears in results.
	for _, id := range r.state.orderIDs()[:3] {
		for _, res := range r.RecommendID(id, r.Len()) {
			if res.VideoID == victim {
				t.Fatalf("removed video %s recommended for %s", victim, id)
			}
		}
	}
}

func TestRemoveThenBuildCompacts(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	victim := r.state.orderIDs()[0]
	sigCountBefore := 0
	if rec, ok := r.Record(victim); ok {
		sigCountBefore = len(rec.Compiled.Series())
	}
	lsbBefore := r.state.lsb.Len()
	r.RemoveVideo(victim)
	r.BuildSocial()
	if r.Tombstones() != 0 {
		t.Errorf("Tombstones after Build = %d, want 0", r.Tombstones())
	}
	if got := r.state.lsb.Len(); got != lsbBefore-sigCountBefore {
		t.Errorf("LSB entries = %d, want %d", got, lsbBefore-sigCountBefore)
	}
	// Still answers queries.
	if res := r.RecommendID(r.state.orderIDs()[0], 5); len(res) == 0 {
		t.Error("no recommendations after compaction")
	}
}

func TestRemoveUnbuiltRecommender(t *testing.T) {
	r := NewRecommender(DefaultOptions())
	if r.RemoveVideo("nope") {
		t.Error("remove on empty succeeded")
	}
}
