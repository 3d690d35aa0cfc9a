package shard

import (
	"context"
	"testing"

	"videorec"
)

// BenchmarkFanOut profiles the sharded query path (go test -bench FanOut
// -cpuprofile): the same corpus at 1 and 16 shards isolates the per-shard
// fixed cost the router pays beyond its share of refinement work.
func BenchmarkFanOut(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(map[int]string{1: "shards1", 16: "shards16"}[n], func(b *testing.B) {
			f := loadFixture(b, 21)
			r, err := New(n, videorec.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ingestAll(b, f, r.Add)
			r.Build()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := f.queries[i%len(f.queries)]
				if _, _, err := r.RecommendCtx(ctx, id, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
