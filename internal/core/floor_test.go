package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// A score floor offered scores from several goroutines at once ends at the
// K-th best of everything offered, ties counted, and every goroutine sees it
// only rise on the way; Reset empties it.
func TestScoreFloorConcurrentOffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewScoreFloor(1)
	for _, k := range []int{1, 3, 10, 300} {
		scores := make([]float64, 200)
		for i := range scores {
			scores[i] = float64(rng.Intn(40)) / 7 // few distinct values: many ties
		}
		f.Reset(k)
		if got := f.load(); !math.IsInf(got, -1) {
			t.Fatalf("k=%d: an empty floor reads %v, want −Inf", k, got)
		}
		const workers = 4
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range workers {
			go func() {
				defer wg.Done()
				last := math.Inf(-1)
				for i := w; i < len(scores); i += workers {
					f.offer(scores[i])
					if cur := f.load(); cur < last {
						t.Errorf("k=%d: the floor fell from %v to %v", k, last, cur)
					} else {
						last = cur
					}
				}
			}()
		}
		wg.Wait()
		want := math.Inf(-1)
		if k <= len(scores) {
			desc := slices.Sorted(slices.Values(scores))
			slices.Reverse(desc)
			want = desc[k-1]
		}
		if got := f.load(); got != want {
			t.Errorf("k=%d: floor %v, want the K-th best score %v", k, got, want)
		}
	}
}
