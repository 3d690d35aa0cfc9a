package core

import (
	"context"
	"testing"
	"time"
)

// batchVariants are the seven mode variants every batched golden claim is
// checked against: the six of the compiled-refine golden plus social-only.
var batchVariants = []struct {
	name   string
	mutate func(*Options)
}{
	{"exact", func(o *Options) { o.Mode = ModeExact }},
	{"sar", func(o *Options) { o.Mode = ModeSAR }},
	{"sarhash", func(o *Options) { o.Mode = ModeSARHash }},
	{"sarhash-serial", func(o *Options) { o.Mode = ModeSARHash; o.RefineWorkers = 1 }},
	{"sarhash-fullscan", func(o *Options) { o.Mode = ModeSARHash; o.FullScan = true }},
	{"content-only", func(o *Options) { o.Mode = ModeSARHash; o.ContentWeightOnly = true }},
	{"social-only", func(o *Options) { o.Mode = ModeSARHash; o.SocialOnly = true }},
}

func goldenQueries(t *testing.T, v *View, n int) []string {
	t.Helper()
	ids := v.SortedIDs()
	if len(ids) > n {
		ids = ids[:n]
	}
	if len(ids) == 0 {
		t.Fatal("empty fixture")
	}
	return ids
}

// Batched execution must be a pure scheduling change: for every mode variant
// the per-query answers of one RecommendBatch call — results, scores,
// component relevances, degraded flags — must be bit-identical to serial
// RecommendCtx calls for the same queries.
func TestBatchGolden(t *testing.T) {
	const topK = 10
	for _, tc := range batchVariants {
		t.Run(tc.name, func(t *testing.T) {
			v := buildGolden(t, tc.mutate)
			ids := goldenQueries(t, v, 8)
			items := make([]BatchItem, 0, len(ids))
			serial := make([][]Result, 0, len(ids))
			for _, id := range ids {
				q, ok := v.QueryFor(id)
				if !ok {
					t.Fatalf("missing record %s", id)
				}
				items = append(items, BatchItem{Query: q, TopK: topK, Exclude: []string{id}})
				res, info, err := v.RecommendCtx(context.Background(), q, topK, id)
				if err != nil {
					t.Fatalf("serial %s: %v", id, err)
				}
				if info.Degraded {
					t.Fatalf("serial %s unexpectedly degraded", id)
				}
				serial = append(serial, res)
			}
			for i, out := range v.RecommendBatch(context.Background(), items) {
				if out.Err != nil {
					t.Fatalf("batch item %s: %v", ids[i], out.Err)
				}
				if out.Info.Degraded {
					t.Fatalf("batch item %s unexpectedly degraded", ids[i])
				}
				if !resultsEqual(out.Results, serial[i]) {
					t.Fatalf("query %s: batched and serial rankings differ\nbatched: %+v\nserial:  %+v",
						ids[i], out.Results, serial[i])
				}
				if len(out.Results) == 0 {
					t.Fatalf("query %s returned no results", ids[i])
				}
			}
		})
	}
}

// A batch with cancelled members must settle exactly those members with
// their own context errors while every survivor stays bit-identical to its
// serial answer — a cancelled query never poisons its cohort.
func TestBatchGoldenMidBatchCancellation(t *testing.T) {
	const topK = 10
	for _, tc := range batchVariants {
		t.Run(tc.name, func(t *testing.T) {
			v := buildGolden(t, tc.mutate)
			ids := goldenQueries(t, v, 8)
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			items := make([]BatchItem, 0, len(ids))
			for i, id := range ids {
				q, _ := v.QueryFor(id)
				it := BatchItem{Query: q, TopK: topK, Exclude: []string{id}}
				if i%3 == 1 {
					it.Ctx = dead
				}
				items = append(items, it)
			}
			outs := v.RecommendBatch(context.Background(), items)
			for i, out := range outs {
				if i%3 == 1 {
					if out.Err != context.Canceled {
						t.Fatalf("cancelled item %s: err = %v, want context.Canceled", ids[i], out.Err)
					}
					if len(out.Results) != 0 {
						t.Fatalf("cancelled item %s returned results", ids[i])
					}
					continue
				}
				if out.Err != nil {
					t.Fatalf("survivor %s: %v", ids[i], out.Err)
				}
				res, _, err := v.RecommendCtx(context.Background(), items[i].Query, topK, ids[i])
				if err != nil {
					t.Fatalf("serial %s: %v", ids[i], err)
				}
				if !resultsEqual(out.Results, res) {
					t.Fatalf("survivor %s differs from serial after cohort cancellation", ids[i])
				}
			}
		})
	}
}

// A batched item inside its degrade margin must produce exactly the serial
// degraded answer — the coarse social ranking — while full-deadline cohort
// members still get their exact refined answers.
func TestBatchGoldenDegraded(t *testing.T) {
	const topK = 10
	v := buildGolden(t, func(o *Options) {
		o.Mode = ModeSARHash
		o.DegradeMargin = time.Hour // any finite deadline is "near" — deterministic degrade
	})
	ids := goldenQueries(t, v, 6)
	nearCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	items := make([]BatchItem, 0, len(ids))
	for i, id := range ids {
		q, _ := v.QueryFor(id)
		it := BatchItem{Query: q, TopK: topK, Exclude: []string{id}}
		if i%2 == 0 {
			it.Ctx = nearCtx
		}
		items = append(items, it)
	}
	outs := v.RecommendBatch(context.Background(), items)
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("item %s: %v", ids[i], out.Err)
		}
		var wantCtx context.Context = context.Background()
		if items[i].Ctx != nil {
			wantCtx = items[i].Ctx
		}
		res, info, err := v.RecommendCtx(wantCtx, items[i].Query, topK, ids[i])
		if err != nil {
			t.Fatalf("serial %s: %v", ids[i], err)
		}
		wantDegraded := i%2 == 0
		if info.Degraded != wantDegraded || out.Info.Degraded != wantDegraded {
			t.Fatalf("item %s: degraded flags serial=%v batch=%v, want %v", ids[i], info.Degraded, out.Info.Degraded, wantDegraded)
		}
		if !resultsEqual(out.Results, res) {
			t.Fatalf("item %s: batched %v-degraded answer differs from serial\nbatched: %+v\nserial:  %+v",
				ids[i], wantDegraded, out.Results, res)
		}
	}
}

// Duplicate queries inside one batch are independent items and must each get
// the full, identical answer (engine-level dedup maps them to one item; the
// core path must stay correct either way).
func TestBatchGoldenDuplicates(t *testing.T) {
	v := buildGolden(t, nil)
	id := goldenQueries(t, v, 1)[0]
	q, _ := v.QueryFor(id)
	items := []BatchItem{
		{Query: q, TopK: 10, Exclude: []string{id}},
		{Query: q, TopK: 10, Exclude: []string{id}},
		{Query: q, TopK: 5, Exclude: []string{id}},
	}
	outs := v.RecommendBatch(context.Background(), items)
	serial10, _, _ := v.RecommendCtx(context.Background(), q, 10, id)
	serial5, _, _ := v.RecommendCtx(context.Background(), q, 5, id)
	if !resultsEqual(outs[0].Results, serial10) || !resultsEqual(outs[1].Results, serial10) {
		t.Fatal("duplicate items differ from serial answer")
	}
	if !resultsEqual(outs[2].Results, serial5) {
		t.Fatal("smaller-K duplicate differs from serial answer")
	}
}

// The warm batched serving loop — recycled outs, pooled chunk and query
// scratch, bounded refinement included — must not allocate. Skipped under
// -race (detector bookkeeping allocates).
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	v := buildGolden(t, nil)
	ids := goldenQueries(t, v, 8)
	items := make([]BatchItem, 0, len(ids))
	for _, id := range ids {
		q, _ := v.QueryFor(id)
		items = append(items, BatchItem{Query: q, TopK: 10, Exclude: []string{id}})
	}
	outs := make([]BatchOut, len(items))
	ctx := context.Background()
	// Warm the pooled scratch and the per-out result slots to their
	// steady-state high-water marks.
	for i := 0; i < 3; i++ {
		v.RecommendBatchInto(ctx, items, outs)
	}
	allocs := testing.AllocsPerRun(50, func() {
		v.RecommendBatchInto(ctx, items, outs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch pass allocates %.1f/op, want 0", allocs)
	}
}

// Chunking: a batch larger than MaxSharedGather must still answer every item
// exactly (items beyond the first chunk run in later shared passes).
func TestBatchGoldenChunking(t *testing.T) {
	v := buildGolden(t, nil)
	ids := v.SortedIDs()
	items := make([]BatchItem, 0, MaxSharedGather+7)
	for i := 0; i < MaxSharedGather+7; i++ {
		id := ids[i%len(ids)]
		q, _ := v.QueryFor(id)
		items = append(items, BatchItem{Query: q, TopK: 10, Exclude: []string{id}})
	}
	outs := v.RecommendBatch(context.Background(), items)
	for i, out := range outs {
		id := ids[i%len(ids)]
		if out.Err != nil {
			t.Fatalf("item %d (%s): %v", i, id, out.Err)
		}
		res, _, _ := v.RecommendCtx(context.Background(), items[i].Query, 10, id)
		if !resultsEqual(out.Results, res) {
			t.Fatalf("item %d (%s) differs from serial", i, id)
		}
	}
}
