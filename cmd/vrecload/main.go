// Command vrecload is the HTTP-level traffic harness from the ROADMAP: it
// drives a vrecd-shaped server with the load shapes a sharing community
// actually produces — Zipf-popular videos (the head-heavy request mix) and
// scheduled comment storms that republish the view mid-traffic — and
// reports what the serving stack did about it: latency percentiles over
// admitted requests, shed/evicted/degraded rates, and goodput.
//
// vrecload measures the whole serving path over real HTTP: admission
// control, the adaptive concurrency limiter, deadline-aware queueing,
// brownout, caching, and the handlers. It is how the overload-control
// subsystem is proven end to end; bench/ measures the serving path at scale
// but does not yet drive a storm.
//
// Two generator modes:
//
//   - closed (default): -conc workers issue queries back to back — offered
//     load self-adjusts to server capacity, the classic saturation probe.
//     A storm multiplies the worker pool by -storm-factor for its duration.
//   - open: queries fire at -rate qps regardless of completions — the
//     shape that actually overloads a server. A storm multiplies the rate.
//
// In both modes the storm window also streams comment bursts through POST
// /updates, forcing view republishes under fire (cache generations lapse,
// social graphs rebuild incrementally).
//
// With no -addr the harness self-serves: it synthesizes a corpus, mounts a
// full server in-process on a loopback listener, and drives it over real
// HTTP — so CI can run storms with zero setup. Pass -addr to aim it at a
// live deployment instead (server tuning flags are then ignored).
//
// Usage:
//
//	go run ./cmd/vrecload -scenario storm/adaptive \
//	    -conc 24 -duration 6s -storm-at 2s -storm-dur 2s -storm-factor 3 \
//	    -limit-ceiling 32 -brownout -out storm.json -append
//
//	go run ./cmd/vrecload -check   # CI smoke: assert goodput, no panics,
//	                               # Retry-After on every shed response
//
// Reports are JSON with kind "vrecload": one row per scenario with goodput,
// latency percentiles and shed/evicted/degraded counts.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"videorec"
	"videorec/internal/faults"
	"videorec/internal/server"
	"videorec/internal/video"
)

// loadResult is one scenario's measurement row.
type loadResult struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	Config      string  `json:"config,omitempty"`
	Conc        int     `json:"conc,omitempty"`
	RateQPS     float64 `json:"rate_qps,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	ZipfS       float64 `json:"zipf_s"`
	StormFactor float64 `json:"storm_factor,omitempty"`

	Requests     int `json:"requests"`
	OK           int `json:"ok"`
	Degraded     int `json:"degraded"`
	Shed         int `json:"shed"`
	QuorumLost   int `json:"quorum_lost"`
	QueueEvicted int `json:"queue_evicted"`
	Deadline504  int `json:"deadline_504"`
	Canceled     int `json:"canceled"`
	Errors       int `json:"errors"`
	Republishes  int `json:"republishes"`

	GoodputQPS   float64 `json:"goodput_qps"`
	ShedRate     float64 `json:"shed_rate"`
	EvictedRate  float64 `json:"evicted_rate"`
	DegradedRate float64 `json:"degraded_rate"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`

	// ShedWithRetryAfter counts shed (503) responses that carried the hint;
	// it must equal Shed + QuorumLost for a healthy server.
	ShedWithRetryAfter int `json:"shed_with_retry_after"`

	// Server-side counters snapshotted from /stats after the run.
	FinalLimit      int     `json:"final_limit"`
	LimitProbes     float64 `json:"limit_probes"`
	LimitBackoffs   float64 `json:"limit_backoffs"`
	BrownoutTotal   float64 `json:"brownout_total"`
	QueueWaitP99Ms  float64 `json:"queue_wait_p99_ms"`
	PanicsRecovered float64 `json:"panics_recovered"`
}

type loadReport struct {
	Kind          string       `json:"kind"` // "vrecload"
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Videos        int          `json:"videos"`
	Scenarios     []loadResult `json:"scenarios"`
}

// tally accumulates per-request outcomes under one mutex; contention is
// irrelevant next to the HTTP round-trips it counts.
type tally struct {
	mu           sync.Mutex
	okLatency    []time.Duration
	requests     int
	ok           int
	degraded     int
	shed         int
	quorumLost   int
	queueEvicted int
	deadline504  int
	canceled     int
	errors       int
	shedRetry    int
}

func (c *tally) record(status int, reason string, retryAfter bool, degraded bool, lat time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	switch status {
	case http.StatusOK:
		c.ok++
		c.okLatency = append(c.okLatency, lat)
		if degraded {
			c.degraded++
		}
	case http.StatusServiceUnavailable:
		if reason == "quorum_lost" {
			c.quorumLost++
		} else {
			c.shed++
		}
		if retryAfter {
			c.shedRetry++
		}
	case http.StatusGatewayTimeout:
		if reason == "queue_evicted" {
			c.queueEvicted++
		} else {
			c.deadline504++
		}
	case 499:
		c.canceled++
	default:
		c.errors++
	}
}

func main() {
	var (
		addr     = flag.String("addr", "", "target server base URL (empty = self-serve an in-process server)")
		out      = flag.String("out", "BENCH_LOAD.json", "output JSON report path")
		appendTo = flag.Bool("append", false, "append scenarios to an existing report instead of overwriting")
		check    = flag.Bool("check", false, "assert smoke invariants (nonzero goodput, zero panics, Retry-After on every shed) and exit non-zero on violation")
		scenario = flag.String("scenario", "storm/adaptive", "scenario name recorded in the report")

		mode     = flag.String("mode", "closed", "load generator: closed (workers back to back) or open (fixed offered rate)")
		conc     = flag.Int("conc", 16, "closed-loop worker count")
		rate     = flag.Float64("rate", 200, "open-loop offered rate, queries per second")
		duration = flag.Duration("duration", 4*time.Second, "total run length")
		zipfS    = flag.Float64("zipf", 1.2, "Zipf skew s of video popularity (>1)")
		shedWait = flag.Duration("shed-backoff", 25*time.Millisecond, "closed-loop: client-side pause after a 503 before retrying (real clients honor Retry-After; hammering a shedding server just measures the shed path)")
		topK     = flag.Int("topk", 10, "recommendation depth")
		seed     = flag.Int64("seed", 23, "workload seed")

		stormAt       = flag.Duration("storm-at", 0, "when the comment storm begins (0 = no storm)")
		stormDur      = flag.Duration("storm-dur", time.Second, "storm length")
		stormFactor   = flag.Float64("storm-factor", 3, "offered-load multiplier during the storm")
		stormComments = flag.Int("storm-comments", 6, "commenters per republish burst during the storm")

		videos         = flag.Int("videos", 90, "self-serve corpus size")
		users          = flag.Int("users", 32, "self-serve community size")
		maxInflight    = flag.Int("max-inflight", 8, "self-serve: initial/fixed concurrency limit")
		maxQueue       = flag.Int("max-queue", 16, "self-serve: admission queue bound")
		limitFloor     = flag.Int("limit-floor", 0, "self-serve: adaptive limit floor")
		limitCeiling   = flag.Int("limit-ceiling", 0, "self-serve: adaptive limit ceiling (0 = fixed limit)")
		adjustWindow   = flag.Duration("adjust-window", 50*time.Millisecond, "self-serve: limiter adjustment cadence")
		brownout       = flag.Bool("brownout", false, "self-serve: enable brownout degradation under queue pressure")
		brownoutMargin = flag.Duration("brownout-margin", 0, "self-serve: deadline budget left to a browned-out request (0 = server default); with -service-time, set it above the synthetic latency so browned requests survive the sleep and reach refinement, which the rest of the margin bounds")
		queryTimeout   = flag.Duration("query-timeout", 250*time.Millisecond, "self-serve: per-query deadline")
		cacheSize      = flag.Int("cache-size", 24, "self-serve: result LRU capacity — keep it below -videos so the Zipf tail misses and the engine actually works")
		serviceTime    = flag.Duration("service-time", 0, "self-serve: add this much synthetic per-query handler latency (simulates a production-sized corpus on small machines; the sleep holds the admission slot but yields the CPU, so real queueing pressure forms even on one core)")
		retryAfterFlag = flag.Duration("retry-after", time.Second, "self-serve: Retry-After fallback before drain-rate signal exists")
	)
	flag.Parse()

	base := *addr
	nVideos := *videos
	if base == "" {
		if *serviceTime > 0 {
			// The latency fault fires inside the admission slot (top of the
			// recommend handler), so every query costs at least this much
			// while holding its slot — the per-query price of a corpus far
			// larger than the harness can synthesize.
			faults.Arm(faults.ServerRecommend, faults.Latency(*serviceTime))
			defer faults.Reset()
		}
		var stop func()
		base, stop = selfServe(*videos, *users, *seed, server.Config{
			MaxInFlight:    *maxInflight,
			MaxQueue:       *maxQueue,
			LimitFloor:     *limitFloor,
			LimitCeiling:   *limitCeiling,
			AdjustWindow:   *adjustWindow,
			Brownout:       *brownout,
			BrownoutMargin: *brownoutMargin,
			QueryTimeout:   *queryTimeout,
			RetryAfter:     *retryAfterFlag,
			CacheSize:      *cacheSize,
		})
		defer stop()
	}

	ids := make([]string, nVideos)
	for i := range ids {
		ids[i] = fmt.Sprintf("clip-%d", i)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}

	c := &tally{}
	var republishes int
	start := time.Now()
	switch *mode {
	case "closed":
		republishes = runClosed(client, base, ids, c, closedSpec{
			conc: *conc, duration: *duration, zipfS: *zipfS, topK: *topK, seed: *seed,
			stormAt: *stormAt, stormDur: *stormDur, stormFactor: *stormFactor, stormComments: *stormComments,
			users: *users, shedBackoff: *shedWait,
		})
	case "open":
		republishes = runOpen(client, base, ids, c, openSpec{
			rate: *rate, duration: *duration, zipfS: *zipfS, topK: *topK, seed: *seed,
			stormAt: *stormAt, stormDur: *stormDur, stormFactor: *stormFactor, stormComments: *stormComments,
			users: *users,
		})
	default:
		log.Fatalf("unknown -mode %q (closed or open)", *mode)
	}
	elapsed := time.Since(start)

	row := c.row(*scenario, *mode, *conc, *rate, elapsed, *zipfS, *stormAt, *stormFactor)
	row.Republishes = republishes
	if *addr == "" {
		// Record the self-served server's tuning so every row is reproducible
		// from the report alone.
		row.Config = fmt.Sprintf("inflight=%d queue=%d floor=%d ceiling=%d timeout=%s brownout=%v service=%s",
			*maxInflight, *maxQueue, *limitFloor, *limitCeiling, *queryTimeout, *brownout, *serviceTime)
	}
	fillServerStats(client, base, &row)

	log.Printf("%s: %d req in %.1fs — goodput %.1f qps, p50 %.1fms p99 %.1fms p999 %.1fms",
		row.Name, row.Requests, row.DurationSec, row.GoodputQPS, row.P50Ms, row.P99Ms, row.P999Ms)
	log.Printf("  ok=%d degraded=%d shed=%d quorumLost=%d evicted=%d deadline504=%d canceled=%d errors=%d republishes=%d",
		row.OK, row.Degraded, row.Shed, row.QuorumLost, row.QueueEvicted, row.Deadline504, row.Canceled, row.Errors, row.Republishes)
	log.Printf("  server: limit=%d probes=%.0f backoffs=%.0f brownouts=%.0f panics=%.0f",
		row.FinalLimit, row.LimitProbes, row.LimitBackoffs, row.BrownoutTotal, row.PanicsRecovered)

	writeReport(*out, *appendTo, nVideos, row)

	if *check {
		fail := false
		if row.OK == 0 {
			log.Print("CHECK FAILED: zero goodput — no request was answered 200")
			fail = true
		}
		if row.PanicsRecovered != 0 {
			log.Printf("CHECK FAILED: %.0f handler panics recovered during the run", row.PanicsRecovered)
			fail = true
		}
		if sheds := row.Shed + row.QuorumLost; row.ShedWithRetryAfter != sheds {
			log.Printf("CHECK FAILED: %d of %d 503 responses missing Retry-After", sheds-row.ShedWithRetryAfter, sheds)
			fail = true
		}
		if fail {
			os.Exit(1)
		}
		log.Print("smoke checks passed: nonzero goodput, zero panics, Retry-After on every 503")
	}
}

// row folds the tally into a report row.
func (c *tally) row(name, mode string, conc int, rate float64, elapsed time.Duration, zipfS float64, stormAt time.Duration, stormFactor float64) loadResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := loadResult{
		Name: name, Mode: mode, DurationSec: elapsed.Seconds(), ZipfS: zipfS,
		Requests: c.requests, OK: c.ok, Degraded: c.degraded,
		Shed: c.shed, QuorumLost: c.quorumLost, QueueEvicted: c.queueEvicted,
		Deadline504: c.deadline504, Canceled: c.canceled, Errors: c.errors,
		ShedWithRetryAfter: c.shedRetry,
	}
	if mode == "closed" {
		r.Conc = conc
	} else {
		r.RateQPS = rate
	}
	if stormAt > 0 {
		r.StormFactor = stormFactor
	}
	r.GoodputQPS = float64(c.ok) / elapsed.Seconds()
	if c.requests > 0 {
		r.ShedRate = float64(c.shed) / float64(c.requests)
		r.EvictedRate = float64(c.queueEvicted) / float64(c.requests)
	}
	if c.ok > 0 {
		r.DegradedRate = float64(c.degraded) / float64(c.ok)
		sort.Slice(c.okLatency, func(a, b int) bool { return c.okLatency[a] < c.okLatency[b] })
		pct := func(p float64) float64 {
			return float64(c.okLatency[int(p*float64(len(c.okLatency)-1))]) / 1e6
		}
		r.P50Ms, r.P99Ms, r.P999Ms = pct(0.50), pct(0.99), pct(0.999)
	}
	return r
}

type closedSpec struct {
	conc          int
	duration      time.Duration
	zipfS         float64
	topK          int
	seed          int64
	stormAt       time.Duration
	stormDur      time.Duration
	stormFactor   float64
	stormComments int
	users         int
	shedBackoff   time.Duration
}

// runClosed drives conc back-to-back workers for the duration; during the
// storm window extra workers join (factor× the pool) and comment bursts
// republish the view. Returns the republish count.
func runClosed(client *http.Client, base string, ids []string, c *tally, s closedSpec) int {
	stopAt := time.Now().Add(s.duration)
	var wg sync.WaitGroup
	worker := func(seed int64, from, until time.Time) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, s.zipfS, 1, uint64(len(ids)-1))
		time.Sleep(time.Until(from))
		for time.Now().Before(until) {
			if status := doQuery(client, base, ids[zipf.Uint64()], s.topK, c); status == http.StatusServiceUnavailable {
				time.Sleep(s.shedBackoff)
			}
		}
	}
	now := time.Now()
	for w := 0; w < s.conc; w++ {
		wg.Add(1)
		go worker(s.seed+int64(w), now, stopAt)
	}
	var stormDone <-chan int
	if s.stormAt > 0 {
		stormStart := now.Add(s.stormAt)
		stormEnd := stormStart.Add(s.stormDur)
		extra := int(float64(s.conc)*(s.stormFactor-1) + 0.5)
		for w := 0; w < extra; w++ {
			wg.Add(1)
			go worker(s.seed+1000+int64(w), stormStart, stormEnd)
		}
		stormDone = startStormComments(client, base, ids, stormStart, stormEnd, s.stormComments, s.users, s.seed)
	}
	wg.Wait()
	if stormDone != nil {
		return <-stormDone
	}
	return 0
}

type openSpec struct {
	rate          float64
	duration      time.Duration
	zipfS         float64
	topK          int
	seed          int64
	stormAt       time.Duration
	stormDur      time.Duration
	stormFactor   float64
	stormComments int
	users         int
}

// runOpen fires queries on a fixed schedule regardless of completions —
// offered load does not yield to server pressure, which is precisely what
// makes open-loop storms dangerous. The storm window multiplies the rate.
func runOpen(client *http.Client, base string, ids []string, c *tally, s openSpec) int {
	rng := rand.New(rand.NewSource(s.seed))
	zipf := rand.NewZipf(rng, s.zipfS, 1, uint64(len(ids)-1))
	start := time.Now()
	stopAt := start.Add(s.duration)
	stormStart := start.Add(s.stormAt)
	stormEnd := stormStart.Add(s.stormDur)

	var wg sync.WaitGroup
	var stormDone <-chan int
	if s.stormAt > 0 {
		stormDone = startStormComments(client, base, ids, stormStart, stormEnd, s.stormComments, s.users, s.seed)
	}
	next := start
	for next.Before(stopAt) {
		rate := s.rate
		if s.stormAt > 0 && !next.Before(stormStart) && next.Before(stormEnd) {
			rate *= s.stormFactor
		}
		id := ids[zipf.Uint64()]
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			doQuery(client, base, id, s.topK, c)
		}(id)
		next = next.Add(time.Duration(float64(time.Second) / rate))
		time.Sleep(time.Until(next))
	}
	wg.Wait()
	if stormDone != nil {
		return <-stormDone
	}
	return 0
}

// startStormComments launches the storm's comment-burst stream: between
// from and until, every ~40ms a burst of commenters lands on a Zipf-hot
// video via POST /updates, forcing a view republish while query traffic is
// in full flight. The returned channel delivers the republish count once
// the stream ends.
func startStormComments(client *http.Client, base string, ids []string, from, until time.Time, commenters, users int, seed int64) <-chan int {
	done := make(chan int, 1)
	go func() {
		republishes := 0
		rng := rand.New(rand.NewSource(seed + 7))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(ids)-1))
		time.Sleep(time.Until(from))
		for time.Now().Before(until) {
			id := ids[zipf.Uint64()]
			names := make([]string, 0, commenters)
			for j := 0; j < commenters; j++ {
				names = append(names, fmt.Sprintf("user-%d", rng.Intn(users)))
			}
			body, _ := json.Marshal(map[string][]string{id: names})
			resp, err := client.Post(base+"/updates", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					republishes++
				}
			}
			time.Sleep(40 * time.Millisecond)
		}
		done <- republishes
	}()
	return done
}

// doQuery issues one GET /recommend, records its outcome, and returns the
// status code (0 on transport error).
func doQuery(client *http.Client, base, id string, topK int, c *tally) int {
	t0 := time.Now()
	resp, err := client.Get(fmt.Sprintf("%s/recommend?id=%s&k=%d", base, id, topK))
	lat := time.Since(t0)
	if err != nil {
		c.record(0, "", false, false, lat)
		return 0
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After") != ""
	degraded := false
	reason := ""
	if resp.StatusCode == http.StatusOK {
		var rr struct {
			Degraded bool `json:"degraded"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&rr)
		degraded = rr.Degraded
	} else {
		var eb struct {
			Reason string `json:"reason"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		reason = eb.Reason
	}
	c.record(resp.StatusCode, reason, retryAfter, degraded, lat)
	return resp.StatusCode
}

// selfServe synthesizes a corpus, builds a full server and mounts it on a
// loopback listener — the zero-setup in-process vrecd the CI smoke drives.
func selfServe(videos, users int, seed int64, cfg server.Config) (baseURL string, stop func()) {
	log.Printf("self-serve: synthesizing %d clips / %d users...", videos, users)
	eng := videorec.New(videorec.Options{SubCommunities: 8})
	names := make([]string, users)
	for i := range names {
		names[i] = fmt.Sprintf("user-%d", i)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < videos; i++ {
		v := video.Synthesize(fmt.Sprintf("clip-%d", i), i%4, video.DefaultSynthOptions(), rng)
		commenters := make([]string, 0, 6)
		for j := 0; j < 6; j++ {
			commenters = append(commenters, names[rng.Intn(users)])
		}
		clip := videorec.Clip{ID: v.ID, FPS: v.FPS, Owner: names[i%users], Commenters: commenters}
		for _, f := range v.Frames {
			clip.Frames = append(clip.Frames, videorec.Frame{W: f.W, H: f.H, Pix: f.Pix})
		}
		if err := eng.Add(clip); err != nil {
			log.Fatalf("self-serve ingest: %v", err)
		}
	}
	eng.Build()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: server.NewWithConfig(eng, cfg).Handler()}
	go func() { _ = hs.Serve(ln) }()
	log.Printf("self-serve: listening on %s (%d videos, limit %d, queue %d, ceiling %d, brownout %v)",
		ln.Addr(), videos, cfg.MaxInFlight, cfg.MaxQueue, cfg.LimitCeiling, cfg.Brownout)
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }
}

// fillServerStats snapshots the overload counters from /stats into the row.
func fillServerStats(client *http.Client, base string, row *loadResult) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		log.Printf("stats fetch failed: %v", err)
		return
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Printf("stats decode failed: %v", err)
		return
	}
	num := func(key string) float64 {
		v, _ := stats[key].(float64)
		return v
	}
	row.FinalLimit = int(num("limit"))
	row.LimitProbes = num("limitProbes")
	row.LimitBackoffs = num("limitBackoffs")
	row.BrownoutTotal = num("brownoutTotal")
	row.QueueWaitP99Ms = num("queueWaitP99Ms")
	row.PanicsRecovered = num("panicsRecovered")
}

// writeReport writes (or, with appendTo, merges into) the JSON report.
func writeReport(path string, appendTo bool, videos int, rows ...loadResult) {
	rep := loadReport{
		Kind:          "vrecload",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Videos:        videos,
	}
	if appendTo {
		if data, err := os.ReadFile(path); err == nil {
			var prev loadReport
			if err := json.Unmarshal(data, &prev); err == nil && prev.Kind == "vrecload" {
				rep.Scenarios = prev.Scenarios
			}
		}
	}
	rep.Scenarios = append(rep.Scenarios, rows...)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d scenarios)", path, len(rep.Scenarios))
}
