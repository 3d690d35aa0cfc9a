package videorec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"videorec/internal/video"
)

// Readers hammer Recommend while writers ingest, update, remove, and
// rebuild. Reads are lock-free against atomically published views, so the
// test asserts the guarantees that design makes: no torn reads (every
// ranking is internally consistent — bounded, sorted, duplicate-free, never
// self-referential), only the documented errors, and a monotonically
// non-decreasing view version. Run under -race; the detector turns any
// unsynchronized access into a failure.
func TestConcurrentReadersAndWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	eng, col := buildEngine(t, Options{})

	// Victim pool: clips the remover may delete. Query sources stay out of
	// it so readers never race a legitimate removal of their own source.
	const victims = 6
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < victims; i++ {
		v := video.Synthesize(fmt.Sprintf("victim-%d", i), i%3, video.DefaultSynthOptions(), rng)
		if err := eng.Add(clipFrom(v, col.Users[0], col.Users[1])); err != nil {
			t.Fatal(err)
		}
	}
	eng.Build()

	var sources []string
	for _, q := range col.Queries {
		sources = append(sources, q.Sources...)
	}

	var (
		readersWg sync.WaitGroup
		writersWg sync.WaitGroup
		done      = make(chan struct{})
		reads     atomic.Int64
		served    atomic.Int64 // reads that returned a ranking
		failure   atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failure.CompareAndSwap(nil, &msg)
	}

	const readers = 8
	for g := 0; g < readers; g++ {
		readersWg.Add(1)
		go func(seed int64) {
			defer readersWg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastVersion uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				src := sources[rng.Intn(len(sources))]
				k := 1 + rng.Intn(10)
				recs, meta, err := eng.RecommendCtx(context.Background(), src, k)
				version := meta.ViewVersion
				reads.Add(1)
				if err != nil {
					// Between Add and Build the published view is unbuilt;
					// that is the only legal error here (sources are never
					// removed, so ErrNotFound would be a torn read).
					if !errors.Is(err, ErrNotBuilt) {
						fail("reader: unexpected error %v", err)
						return
					}
					continue
				}
				served.Add(1)
				if version < lastVersion {
					fail("view version went backwards: %d after %d", version, lastVersion)
					return
				}
				lastVersion = version
				if len(recs) > k {
					fail("%d results for k=%d", len(recs), k)
					return
				}
				seen := make(map[string]bool, len(recs))
				for i, rec := range recs {
					if rec.VideoID == src {
						fail("self-recommendation for %s", src)
						return
					}
					if seen[rec.VideoID] {
						fail("duplicate %s in ranking for %s", rec.VideoID, src)
						return
					}
					seen[rec.VideoID] = true
					if i > 0 {
						prev := recs[i-1]
						if rec.Score > prev.Score ||
							(rec.Score == prev.Score && rec.VideoID < prev.VideoID) {
							fail("ranking for %s unsorted at %d: %+v after %+v", src, i, rec, prev)
							return
						}
					}
				}
			}
		}(int64(g + 1))
	}

	// Writer 1: ingest fresh clips, rebuilding after each so readers regain
	// a built view quickly.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		rng := rand.New(rand.NewSource(1001))
		for i := 0; i < 4; i++ {
			v := video.Synthesize(fmt.Sprintf("stress-add-%d", i), i%3, video.DefaultSynthOptions(), rng)
			if err := eng.Add(clipFrom(v, col.Users[2], col.Users[3])); err != nil {
				fail("Add: %v", err)
				return
			}
			eng.Build()
		}
	}()

	// Writer 2: stream comment updates through the maintenance path.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		rng := rand.New(rand.NewSource(2002))
		for i := 0; i < 12; i++ {
			batch := map[string][]string{
				sources[rng.Intn(len(sources))]: {
					fmt.Sprintf("stress-user-%d", i),
					col.Users[rng.Intn(len(col.Users))],
				},
			}
			if _, err := eng.ApplyUpdates(batch); err != nil && !errors.Is(err, ErrNotBuilt) {
				fail("ApplyUpdates: %v", err)
				return
			}
		}
	}()

	// Writer 3: delete the victim pool one clip at a time.
	writersWg.Add(1)
	go func() {
		defer writersWg.Done()
		for i := 0; i < victims; i++ {
			if err := eng.Remove(fmt.Sprintf("victim-%d", i)); err != nil {
				fail("Remove victim-%d: %v", i, err)
				return
			}
		}
	}()

	// Readers overlap the entire write schedule, then wind down.
	writersWg.Wait()
	close(done)
	readersWg.Wait()

	if msg := failure.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if reads.Load() == 0 || served.Load() == 0 {
		t.Fatalf("stress produced no served reads (reads=%d served=%d)", reads.Load(), served.Load())
	}

	// The engine is coherent after the dust settles.
	eng.Build()
	recs, err := eng.Recommend(sources[0], 10)
	if err != nil || len(recs) == 0 {
		t.Fatalf("post-stress recommend: %d recs, err=%v", len(recs), err)
	}
	for i := 0; i < victims; i++ {
		if err := eng.Remove(fmt.Sprintf("victim-%d", i)); !errors.Is(err, ErrNotFound) {
			t.Errorf("victim-%d survived the stress: %v", i, err)
		}
	}
}
