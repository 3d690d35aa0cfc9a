package main

// layers.go takes the per-layer measurements of the -trace pass by timing
// calls into each layer's public functions from outside. Together with
// corpus.go it is the only file that calls the repository's non-HTTP APIs.
//
// The read ladder replays distinct clicked clips single-threaded and runs
// each one once per step on the same input:
//
//	View.QueryFor ⊂ View.GatherCandidates ⊂ View.RecommendCtx ⊂
//	Engine/Router.RecommendCtx ⊂ HTTP round trip (result-cache miss)
//
// A step's self time is its duration minus the step inside it, so the self
// times sum to the HTTP time by construction. On a sharded backend the view
// steps run once per shard, one after another, and the slowest shard's view
// is the one the answer waits for.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/server"
	"videorec/internal/shard"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/store"
)

// traceOps are the fixed op counts of the trace pass; being fixed, the
// pass's exact counts repeat for a seed.
type traceOps struct {
	ladder  int // distinct clicked clips replayed through the read ladder
	allocs  int // of those, how many the allocation count runs over
	pairs   int // (query, record) pairs the κJ kernel is timed on
	updates int // comment batches split by the write ladder
	adds    int // clips ingested one by one at the end
}

var fullTrace = traceOps{ladder: 300, allocs: 100, pairs: 4096, updates: 64, adds: 40}

const (
	batchRounds  = 2
	batchSize    = 64
	ladderRungs  = 4
	latencyLimit = 100.0 // ms from due time, on a rung's p99
)

// rungFactors scale a workload's frozen base rate into the rate ladder.
var rungFactors = [ladderRungs]float64{0.5, 0.75, 1.0, 1.5}

// span is one timed call: the layer boundary it crossed, the op it belongs
// to, and the span that contains it.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Op      int     `json:"op"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) time(name, parent string, op int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{name, parent, op, us(start.Sub(t.t0)), us(end.Sub(t.t0))})
	return end.Sub(start)
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

func backendViews(be server.Backend) []*core.View {
	views := make([]*core.View, 0, be.NumShards())
	for i := 0; i < be.NumShards(); i++ {
		if e, ok := be.ShardEngine(i); ok {
			v, _ := e.CurrentView()
			views = append(views, v)
		}
	}
	return views
}

// distinct returns the first n distinct ids of the sequence.
func distinct(ids []string, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, id := range ids {
		if len(out) == n {
			break
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// tracePass runs every per-layer measurement against a set-up deployment
// and returns the per-layer metrics (name → value). in carries the seeded
// click and comment streams of the workload.
func tracePass(w workload, in *inputs, d *deployment, cl *client, parts setupParts, seconds float64) (map[string]float64, *tracer, error) {
	m := map[string]float64{
		"bench.generate_s":      parts.generate.Seconds(),
		"core.ingest_s":         parts.ingest.Seconds(),
		"core.build_social_s":   parts.buildSocial.Seconds(),
		"store.save_s":          parts.save.Seconds(),
		"store.snapshot_mb":     float64(parts.snapshotBytes) / (1 << 20),
		"videorec.load_s":       parts.load.Seconds(),
		"server.listen_s":       parts.listen.Seconds(),
		"bench.setup_wall_s":    parts.wall.Seconds(),
		"loadgen.base_rate_qps": w.baseRate,
	}
	ctx := context.Background()
	ids := distinct(in.clicks, w.trace.ladder)
	tr := &tracer{t0: time.Now()}

	// Untraced reference: the same ops over HTTP only, every one a miss.
	d.resetCache()
	var untraced time.Duration
	var respBytes float64
	for _, id := range ids {
		t := time.Now()
		_, n, err := cl.recommend(id)
		untraced += time.Since(t)
		if err != nil {
			return nil, nil, err
		}
		respBytes += float64(n)
	}
	m["server.resp_bytes"] = respBytes / float64(len(ids))

	// The ladder.
	d.resetCache()
	views := backendViews(d.be)
	perDim := make([][]int, len(views))
	for i, v := range views {
		perDim[i] = v.VideosPerDim()
	}
	var compile, gather, view, backendT, httpT time.Duration
	var candidates, postings float64
	lists := make([][]core.Result, len(views))
	for op, id := range ids {
		var q core.Query
		compile += tr.time("core.query_compile", "videorec.backend", op, func() {
			for _, v := range views {
				if qq, ok := v.QueryFor(id); ok {
					q = qq
					break
				}
			}
			if len(views) > 1 {
				q = views[0].PrimeContentKeys(q)
			}
		})
		var slowView, slowGather time.Duration
		for i, v := range views {
			var err error
			g := tr.time("core.gather", "core.view", op, func() {
				_, err = v.GatherCandidates(ctx, q, id)
			})
			if err != nil {
				return nil, nil, err
			}
			var info core.RecommendInfo
			rv := tr.time("core.view", "videorec.backend", op, func() {
				lists[i], info, err = v.RecommendCtx(ctx, q, topK, id)
			})
			if err != nil {
				return nil, nil, err
			}
			candidates += float64(info.Candidates)
			if rv > slowView {
				slowView, slowGather = rv, g
			}
			if rec, ok := v.Record(id); ok {
				// The stored query's vector is the same on every shard; each
				// shard scans its own posting lists for its non-zero dims.
				for dim, x := range rec.Vec {
					for _, pd := range perDim {
						if x > 0 && dim < len(pd) {
							postings += float64(pd[dim])
						}
					}
				}
			}
		}
		view += slowView
		gather += slowGather
		var err error
		backendT += tr.time("videorec.backend", "server.http", op, func() {
			_, _, err = d.be.RecommendCtx(ctx, id, topK)
		})
		if err != nil {
			return nil, nil, err
		}
		httpT += tr.time("server.http", "", op, func() {
			_, _, err = cl.recommend(id)
		})
		if err != nil {
			return nil, nil, err
		}
	}
	n := float64(len(ids))
	m["bench.trace_overhead_ratio"] = float64(httpT) / float64(untraced)
	m["bench.traced_http_us"] = us(httpT) / n
	m["server.http_self_us"] = us(httpT-backendT) / n
	m["videorec.backend_self_us"] = us(backendT-view-compile) / n
	m["core.refine_us"] = us(view-gather) / n
	m["core.gather_us"] = us(gather) / n
	m["core.query_compile_us"] = us(compile) / n
	m["core.candidates_per_query"] = candidates / n
	m["core.candidates_over_corpus"] = candidates / n / float64(w.videos)
	m["core.topk_over_candidates"] = topK * n / candidates
	m["index.postings_scanned_per_query"] = postings / n

	// MergeTopK alone, over the last op's per-view lists.
	t := time.Now()
	const mergeReps = 1000
	for i := 0; i < mergeReps; i++ {
		shard.MergeTopK(topK, func(yield func([]core.Result)) {
			for _, l := range lists {
				yield(l)
			}
		})
	}
	m["shard.merge_us"] = us(time.Since(t)) / mergeReps

	// The ladder's HTTP step cached every op: repeat them for the hit time.
	t = time.Now()
	for _, id := range ids {
		if _, _, err := cl.recommend(id); err != nil {
			return nil, nil, err
		}
	}
	m["server.cache_hit_us"] = us(time.Since(t)) / n

	// Allocation per backend query.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	na := min(w.trace.allocs, len(ids))
	for _, id := range ids[:na] {
		if _, _, err := d.be.RecommendCtx(ctx, id, topK); err != nil {
			return nil, nil, err
		}
	}
	runtime.ReadMemStats(&after)
	m["core.rec_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(na)
	m["core.rec_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(na)

	m["signature.kj_ns_per_pair"] = kernelTime(views, ids, in, w.trace.pairs)

	// Batched backend path, 64-query rounds of the workload's own stream.
	reqs := make([]videorec.BatchRequest, batchSize)
	t = time.Now()
	for r := 0; r < batchRounds; r++ {
		for i := range reqs {
			reqs[i] = videorec.BatchRequest{ClipID: in.clicks[(r*batchSize+i)%len(in.clicks)], TopK: topK}
		}
		for _, a := range d.be.RecommendBatchCtx(ctx, reqs) {
			if a.Err != nil {
				return nil, nil, a.Err
			}
		}
	}
	m["videorec.batch64_us_per_query"] = us(time.Since(t)) / (batchRounds * batchSize)

	if err := updateLadder(w, in, d, cl, tr, m); err != nil {
		return nil, nil, err
	}
	if err := rateLadder(w, in, d, cl, seconds, m); err != nil {
		return nil, nil, err
	}

	// Online ingest on the loaded corpus: one publish per clip.
	rng := rand.New(rand.NewSource(in.seed + 4))
	t = time.Now()
	for i := 0; i < w.trace.adds; i++ {
		sh := genShot(rng)
		err := d.be.AddPrepared(videorec.PreparedClip{
			ID:     fmt.Sprintf("x%06d", i),
			Series: signature.Series{sh[0], sh[1]},
			Desc:   social.NewDescriptor(in.corpus.users[rng.Intn(len(in.corpus.users))]),
		})
		if err != nil {
			return nil, nil, err
		}
	}
	m["videorec.add_prepared_us"] = us(time.Since(t)) / float64(w.trace.adds)
	return m, tr, nil
}

// kernelTime times the refinement kernel alone: compiled κJ with a warmed
// scratch over fixed (query, record) pairs, in nanoseconds per pair.
func kernelTime(views []*core.View, ids []string, in *inputs, n int) float64 {
	compiled := func(id string) *signature.CompiledSeries {
		for _, v := range views {
			if rec, ok := v.Record(id); ok {
				return rec.Compiled
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(in.seed + 5))
	type pair struct{ a, b *signature.CompiledSeries }
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{
			compiled(ids[i%len(ids)]),
			compiled(in.corpus.clips[rng.Intn(len(in.corpus.clips))].id),
		}
	}
	thr := views[0].Options().MatchThreshold
	var scratch signature.KJScratch
	run := func() {
		for _, p := range pairs {
			signature.KJCancelCompiled(p.a, p.b, thr, nil, &scratch)
		}
	}
	run() // grows the scratch to its high-water mark
	t := time.Now()
	run()
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// updateLadder splits the write path over the first comment
// batches: derivation and a journal append are timed on their own, then
// even batches go through ApplyUpdates directly and odd ones through POST
// /updates, so the handler's share is the difference of the two means.
func updateLadder(w workload, in *inputs, d *deployment, cl *client, tr *tracer, m map[string]float64) error {
	scratchPath := filepath.Join(filepath.Dir(d.journal), "scratch.wal")
	scratch, err := store.OpenJournal(scratchPath)
	if err != nil {
		return err
	}
	defer scratch.Close()
	var derive, journal, apply, maintain, viaHTTP time.Duration
	var direct, posted, comments float64
	var sum videorec.UpdateSummary
	var allocs, bytes uint64
	var before, after runtime.MemStats
	for op, b := range in.batches[:w.trace.updates] {
		for i := 0; i < d.be.NumShards(); i++ {
			e, _ := d.be.ShardEngine(i)
			var err error
			derive += tr.time("core.derive", "videorec.apply", op, func() {
				_, err = e.DeriveConnections(b)
			})
			if err != nil {
				return err
			}
		}
		journal += tr.time("store.journal_append", "videorec.apply", op, func() {
			err = scratch.Append(b)
		})
		if err != nil {
			return err
		}
		for _, users := range b {
			comments += float64(len(users))
		}
		if op%2 == 1 {
			viaHTTP += tr.time("server.update", "", op, func() {
				err = cl.update(b)
			})
			if err != nil {
				return err
			}
			posted++
			continue
		}
		var s videorec.UpdateSummary
		runtime.ReadMemStats(&before)
		apply += tr.time("videorec.apply", "server.update", op, func() {
			s, err = d.be.ApplyUpdates(b)
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		direct++
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		maintain += s.MaintenanceDuration
		sum.Unions += s.Unions
		sum.Splits += s.Splits
		sum.UsersMoved += s.UsersMoved
		sum.VideosRevectorized += s.VideosRevectorized
	}
	info, err := os.Stat(scratchPath)
	if err != nil {
		return err
	}
	n := float64(w.trace.updates)
	m["core.derive_us"] = us(derive) / n
	m["store.journal_append_us"] = us(journal) / n
	m["store.journal_bytes_per_comment"] = float64(info.Size()) / comments
	m["videorec.apply_us"] = us(apply) / direct
	m["community.maintain_us"] = us(maintain) / direct
	m["core.republish_self_us"] = us(apply)/direct - us(maintain)/direct - us(derive)/n - us(journal)/n
	m["server.update_self_us"] = us(viaHTTP)/posted - us(apply)/direct
	m["videorec.apply_allocs_per_op"] = float64(allocs) / direct
	m["videorec.apply_bytes_per_op"] = float64(bytes) / direct
	m["community.unions"] = float64(sum.Unions)
	m["community.splits"] = float64(sum.Splits)
	m["community.users_moved"] = float64(sum.UsersMoved)
	m["core.videos_revectorized"] = float64(sum.VideosRevectorized)
	return nil
}

// rateLadder replays the workload's mix open-loop at four fixed absolute
// rates and reports each rung's p99 from due time, the highest rung that
// met the limit without failures or a backlog, how late the generator ran,
// and what the result cache and the collector did meanwhile.
func rateLadder(w workload, in *inputs, d *deployment, cl *client, seconds float64, m map[string]float64) error {
	d.resetCache()
	s0, err := cl.stats()
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var batches []map[string][]string
	if w.mixed {
		batches = in.batches[w.trace.updates:]
	}
	rung := time.Duration(seconds / ladderRungs * float64(time.Second))
	var late []float64
	m["loadgen.rate_ok_qps"] = 0
	m["loadgen.backlog_end"] = 0
	offset := 0
	for i, f := range rungFactors {
		p := cl.openMix(in.clicks, batches, offset, f*w.baseRate, rung)
		offset += len(p.clickMs)
		if p.firstErr != nil {
			return p.firstErr
		}
		p99 := quantile(sortedCopy(p.clickMs), 0.99)
		m[fmt.Sprintf("loadgen.rung%d_p99_ms", i+1)] = p99
		m["loadgen.backlog_end"] += float64(p.backlog)
		if p99 <= latencyLimit && p.backlog == 0 {
			m["loadgen.rate_ok_qps"] = f * w.baseRate
		}
		if i == 1 {
			late = p.lateMs
		}
	}
	m["loadgen.late_p99_ms"] = quantile(sortedCopy(late), 0.99)
	runtime.ReadMemStats(&after)
	s1, err := cl.stats()
	if err != nil {
		return err
	}
	hits, misses := s1["cacheHits"]-s0["cacheHits"], s1["cacheMisses"]-s0["cacheMisses"]
	m["server.cache_hit_ratio"] = hits / (hits + misses)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return nil
}

func (t *tracer) write(path string, w workload, seed int64, counts map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: w.name, Seed: seed, Counts: counts, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
