// Command vrecbench measures the serving-path performance of the
// recommender over fixed synthetic workloads and writes the measurements as
// JSON (BENCH_PR*.json files checked into the repo record one run per PR).
// Each recommend workload drives View.RecommendCtx — the same frozen-view
// entry point vrecd serves — so the numbers include candidate gathering,
// refinement and top-K selection. The candidates/* workloads isolate
// candidate generation (steps 1–2: posting-list union, social top-K, LCP
// walk) through View.GatherCandidates, and two κJ micro-workloads isolate
// the compiled vs. uncompiled refinement kernels. The shards/* workloads
// drive the scatter-gather router end to end — partitioned corpus, parallel
// fan-out, merged top-K — with each shard refining serially, so the qps
// curve across shard counts measures the router's scaling and its merged
// rankings stay bit-identical to shards/1 by construction. shards/faulty
// repeats the four-shard run with one shard armed with a latency fault past
// its per-shard budget: the degraded column reports the partial-answer rate
// and the latency percentiles show the circuit breaker sidelining the slow
// shard.
//
// Usage:
//
//	go run ./cmd/vrecbench -out BENCH_PR8.json
//	go run ./cmd/vrecbench -short   # CI-sized run, seconds not minutes
//
// Compare two runs with cmd/benchcompare (make bench-compare).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/dataset"
	"videorec/internal/faults"
	"videorec/internal/shard"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// result is one workload's measurement row.
type result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	QPS         float64 `json:"qps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	Degraded    int     `json:"degraded,omitempty"`
}

type report struct {
	GeneratedUnix int64    `json:"generated_unix"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Hours         float64  `json:"hours"`
	Users         int      `json:"users"`
	Videos        int      `json:"videos"`
	Seed          int64    `json:"seed"`
	TopK          int      `json:"top_k"`
	Results       []result `json:"results"`
}

func main() {
	var (
		out   = flag.String("out", "BENCH_PR8.json", "output JSON path")
		short = flag.Bool("short", false, "CI-sized run: smaller collection, fewer iterations")
		hours = flag.Float64("hours", 8, "collection size in video-hours")
		users = flag.Int("users", 200, "community size")
		seed  = flag.Int64("seed", 11, "dataset seed")
		topK  = flag.Int("topk", 10, "recommendation depth")
		only  = flag.String("only", "", "run only workloads whose name starts with this prefix (e.g. updates/)")
	)
	flag.Parse()
	keep := func(name string) bool { return *only == "" || strings.HasPrefix(name, *only) }

	iters := 300
	if *short {
		*hours, *users, iters = 4, 150, 60
	}

	log.Printf("generating %.0fh / %d users (seed %d)...", *hours, *users, *seed)
	o := dataset.DefaultOptions()
	o.Hours = *hours
	o.Users = *users
	o.Seed = *seed
	col := dataset.Generate(o)

	// Extract once; every workload's recommender ingests the same series.
	sigOpts := signature.DefaultOptions()
	series := make(map[string]signature.Series, len(col.Items))
	descs := make(map[string]social.Descriptor, len(col.Items))
	for _, it := range col.Items {
		v := it.Render(o.Synth)
		series[it.ID] = signature.Extract(v, sigOpts)
		v.ReleaseFrames()
		var commenters []string
		for _, cm := range it.Comments {
			if cm.Month < col.Opts.MonthsSource {
				commenters = append(commenters, cm.User)
			}
		}
		descs[it.ID] = social.NewDescriptor(it.Owner, commenters...)
	}

	build := func(mutate func(*core.Options)) *core.View {
		opts := core.DefaultOptions()
		opts.K = 12
		if mutate != nil {
			mutate(&opts)
		}
		r := core.NewRecommender(opts)
		for _, it := range col.Items {
			r.IngestSeries(it.ID, series[it.ID], descs[it.ID])
		}
		r.BuildSocial()
		return r.Freeze()
	}

	queries := make([]string, 0, len(col.Items))
	for _, it := range col.Items {
		queries = append(queries, it.ID)
	}
	sort.Strings(queries)

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Hours:         *hours,
		Users:         *users,
		Videos:        len(col.Items),
		Seed:          *seed,
		TopK:          *topK,
	}

	type workload struct {
		name   string
		iters  int
		mutate func(*core.Options)
		// deadline, when nonzero, is attached to every query's context;
		// inside the degrade margin it forces the coarse-answer path.
		deadline time.Duration
	}
	workloads := []workload{
		{name: "recommend/sarhash/parallel", iters: iters, mutate: func(o *core.Options) { o.Mode = core.ModeSARHash }},
		{name: "recommend/sarhash/serial", iters: iters, mutate: func(o *core.Options) { o.Mode = core.ModeSARHash; o.RefineWorkers = 1 }},
		{name: "recommend/sar/serial", iters: iters, mutate: func(o *core.Options) { o.Mode = core.ModeSAR; o.RefineWorkers = 1 }},
		{name: "recommend/exact/fullscan", iters: max(iters/10, 5), mutate: func(o *core.Options) { o.Mode = core.ModeExact }},
		{name: "recommend/sarhash/degraded", iters: iters, mutate: func(o *core.Options) { o.Mode = core.ModeSARHash }, deadline: 15 * time.Millisecond},
	}

	for _, wl := range workloads {
		if !keep(wl.name) {
			continue
		}
		v := build(wl.mutate)
		rep.Results = append(rep.Results, logRow(runWorkload(wl.name, wl.iters, func(i int) (bool, error) {
			ctx := context.Background()
			if wl.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, time.Now().Add(wl.deadline))
				defer cancel()
			}
			id := queries[i%len(queries)]
			q, ok := v.QueryFor(id)
			if !ok {
				return false, fmt.Errorf("missing query %s", id)
			}
			res, info, err := v.RecommendCtx(ctx, q, *topK, id)
			if err == nil && len(res) == 0 {
				return false, fmt.Errorf("query %s returned no results", id)
			}
			return info.Degraded, err
		})))
	}

	// Scatter-gather workloads: the full sharded serving path — routed
	// query lookup, parallel per-shard gather+refine, merged top-K. Every
	// shard refines serially (RefineWorkers=1) so parallelism comes only
	// from the fan-out: the qps ratio between shard counts is the router's
	// scaling, not the refinement pool's. Rankings are bit-identical across
	// shard counts (the golden tests in internal/shard prove it); here we
	// only measure.
	for _, n := range []int{1, 4, 16} {
		if !keep(fmt.Sprintf("shards/%d", n)) {
			continue
		}
		router, err := shard.New(n, videorec.Options{SubCommunities: 12, RefineWorkers: 1})
		if err != nil {
			log.Fatal(err)
		}
		for _, it := range col.Items {
			if err := router.AddPrepared(videorec.PreparedClip{ID: it.ID, Series: series[it.ID], Desc: descs[it.ID]}); err != nil {
				log.Fatalf("shards/%d ingest %s: %v", n, it.ID, err)
			}
		}
		router.Build()
		rep.Results = append(rep.Results, logRow(runWorkload(fmt.Sprintf("shards/%d", n), iters, func(i int) (bool, error) {
			id := queries[i%len(queries)]
			res, info, err := router.RecommendCtx(context.Background(), id, *topK)
			if err == nil && len(res) == 0 {
				return false, fmt.Errorf("query %s returned no results", id)
			}
			return info.Degraded, err
		})))
	}

	// shards/faulty: the degraded serving path under a persistent slow shard.
	// One of four shards is armed with a 30ms latency fault — well past the
	// per-shard budget (deadline − margin ≈ 25ms) — so every answer is a
	// quorum-satisfying partial from the three healthy shards. The Degraded
	// column is the partial-answer count; the p50/p99 spread shows the
	// circuit breaker at work: once it opens, the slow shard is skipped and
	// the common case runs at healthy-path latency, while the tail carries
	// the occasional half-open probe that re-pays the fault to test for
	// recovery.
	if keep("shards/faulty") {
		const n = 4
		router, err := shard.New(n, videorec.Options{SubCommunities: 12, RefineWorkers: 1})
		if err != nil {
			log.Fatal(err)
		}
		for _, it := range col.Items {
			if err := router.AddPrepared(videorec.PreparedClip{ID: it.ID, Series: series[it.ID], Desc: descs[it.ID]}); err != nil {
				log.Fatalf("shards/faulty ingest %s: %v", it.ID, err)
			}
		}
		router.Build()
		router.SetResilience(shard.Resilience{
			ShardMargin:    75 * time.Millisecond,
			MinShardQuorum: 3,
		})
		faults.Arm(shard.SiteForShard(shard.FaultFanOutSlow, 1), faults.Latency(30*time.Millisecond))
		rep.Results = append(rep.Results, logRow(runWorkload("shards/faulty", iters, func(i int) (bool, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			id := queries[i%len(queries)]
			res, info, err := router.RecommendCtx(ctx, id, *topK)
			if err == nil && len(res) == 0 {
				return false, fmt.Errorf("query %s returned no results", id)
			}
			return info.Degraded, err
		})))
		faults.Reset()
	}

	// Candidate-generation micro-workloads: steps 1–2 in isolation.
	// candidates/social exercises the impact-posting s̃J accumulation plus
	// the bounded s̃J selection; candidates/content exercises the heap-driven LCP
	// walk with bitset dedupe. Both run against a warm pooled scratch, so
	// allocs_per_op directly reports the steady-state gathering allocations
	// (the dense-ID design holds this at zero).
	gatherIters := iters * 20
	for _, cw := range []struct {
		name   string
		mutate func(*core.Options)
	}{
		{name: "candidates/social", mutate: func(o *core.Options) { o.Mode = core.ModeSARHash; o.SocialOnly = true }},
		{name: "candidates/content", mutate: func(o *core.Options) { o.Mode = core.ModeSARHash; o.ContentWeightOnly = true }},
	} {
		if !keep(cw.name) {
			continue
		}
		cv := build(cw.mutate)
		rep.Results = append(rep.Results, logRow(runWorkload(cw.name, gatherIters, func(i int) (bool, error) {
			id := queries[i%len(queries)]
			q, ok := cv.QueryFor(id)
			if !ok {
				return false, fmt.Errorf("missing query %s", id)
			}
			n, err := cv.GatherCandidates(context.Background(), q, id)
			if err == nil && n == 0 {
				return false, fmt.Errorf("query %s gathered no candidates", id)
			}
			return false, err
		})))
	}

	// κJ micro-workloads: one refinement step (query vs. stored candidate),
	// compiled kernel with a warmed scratch vs. the uncompiled reference.
	// The allocs_per_op gap between these two rows is the per-candidate
	// allocation reduction of the compiled representation.
	if keep("kj/") {
		v := build(nil)
		ids := v.SortedIDs()
		q, _ := v.Record(ids[0])
		recs := make([]*core.Record, 0, len(ids))
		raws := make([]signature.Series, 0, len(ids))
		for _, id := range ids[1:] {
			rec, _ := v.Record(id)
			recs = append(recs, rec)
			raws = append(raws, rec.Compiled.Series())
		}
		threshold := v.Options().MatchThreshold
		kjIters := iters * 40

		var scratch signature.KJScratch
		qs := q.Compiled.Series()
		qc := signature.CompileSeries(qs)
		for _, rec := range recs { // warm the scratch high-water mark
			signature.KJCancelCompiled(qc, rec.Compiled, threshold, nil, &scratch)
		}
		rep.Results = append(rep.Results, logRow(runWorkload("kj/compiled", kjIters, func(i int) (bool, error) {
			signature.KJCancelCompiled(qc, recs[i%len(recs)].Compiled, threshold, nil, &scratch)
			return false, nil
		})))
		rep.Results = append(rep.Results, logRow(runWorkload("kj/uncompiled", kjIters, func(i int) (bool, error) {
			signature.KJCancel(qs, raws[i%len(raws)], threshold, nil)
			return false, nil
		})))
	}

	// updates/{small,storm}: the write path end to end — Engine.ApplyUpdates
	// derives the new social connections a comment batch induces, maintains
	// the sub-communities (new-user attachment, unions, splits), grows
	// descriptors, re-vectorizes every touched video and publishes a new
	// view. Batches replay the dataset's test-period comment timeline
	// (months past the ingest horizon) in deterministic order, cycling when
	// exhausted — so after the first cycle most user pairs already exist and
	// the steady state is the delta-apply hot path: weight patches plus
	// occasional structural work, which is what a production comment stream
	// looks like between full rebuilds. updates/small applies
	// conversational batches (64 comments per op); updates/storm applies
	// republish-burst batches (2048 comments per op), the write pressure the
	// vrecload storm scenarios fire mid-traffic. One op = one journal-less
	// ApplyUpdates call, copy-on-write clone and view publication included.
	if keep("updates/") {
		type event struct{ vid, user string }
		var stream []event
		for _, it := range col.Items {
			for _, cm := range it.Comments {
				if cm.Month >= col.Opts.MonthsSource {
					stream = append(stream, event{vid: it.ID, user: cm.User})
				}
			}
		}
		if len(stream) == 0 {
			log.Fatal("updates/: dataset has no test-period comments")
		}
		for _, uw := range []struct {
			name  string
			batch int
			iters int
		}{
			{name: "updates/small", batch: 64, iters: iters},
			{name: "updates/storm", batch: 2048, iters: max(iters/5, 20)},
		} {
			eng := videorec.New(videorec.Options{SubCommunities: 12, RefineWorkers: 1})
			for _, it := range col.Items {
				if err := eng.AddPrepared(videorec.PreparedClip{ID: it.ID, Series: series[it.ID], Desc: descs[it.ID]}); err != nil {
					log.Fatalf("%s ingest %s: %v", uw.name, it.ID, err)
				}
			}
			eng.Build()
			batch := func(i int) map[string][]string {
				out := make(map[string][]string, uw.batch/4)
				base := i * uw.batch
				for j := 0; j < uw.batch; j++ {
					ev := stream[(base+j)%len(stream)]
					out[ev.vid] = append(out[ev.vid], ev.user)
				}
				return out
			}
			rep.Results = append(rep.Results, logRow(runWorkload(uw.name, uw.iters, func(i int) (bool, error) {
				_, err := eng.ApplyUpdates(batch(i))
				return false, err
			})))
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// runWorkload times iters calls of op, recording wall-clock latency per call
// and heap-allocation deltas across the whole loop.
func runWorkload(name string, iters int, op func(i int) (bool, error)) result {
	// A few warm-up calls populate caches (lazy compiles, map growth) so the
	// measured loop sees steady state.
	for i := 0; i < min(iters, 3); i++ {
		if _, err := op(i); err != nil {
			log.Fatalf("%s warm-up: %v", name, err)
		}
	}
	lat := make([]time.Duration, iters)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	degraded := 0
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		deg, err := op(i)
		lat[i] = time.Since(t0)
		if err != nil {
			log.Fatalf("%s iter %d: %v", name, i, err)
		}
		if deg {
			degraded++
		}
	}
	total := time.Since(start)
	runtime.ReadMemStats(&after)

	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	pct := func(p float64) int64 {
		idx := int(p * float64(iters-1))
		return lat[idx].Nanoseconds()
	}
	return result{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(total.Nanoseconds()) / float64(iters),
		QPS:         float64(iters) / total.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		P50Ns:       pct(0.50),
		P99Ns:       pct(0.99),
		Degraded:    degraded,
	}
}

func logRow(r result) result {
	log.Printf("%-28s %10.0f ns/op  %8.1f qps  %7.0f allocs/op  p99 %s",
		r.Name, r.NsPerOp, r.QPS, r.AllocsPerOp, time.Duration(r.P99Ns))
	return r
}
