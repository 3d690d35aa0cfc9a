// Command bench is the repository's one serving benchmark: it generates a
// corpus from a seed, takes the operator's cold-start path to a listening
// server, drives it over HTTP the way visitors and commenters would, checks
// every answer, and prints the metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload browse_small --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --all --seed 1 --runs 5 --out bench/out/a.json
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// workload is one traffic mix over one corpus size and deployment shape.
type workload struct {
	name          string
	videos, users int
	shards        int  // 0: a single Engine; n > 1: a Router over n shards
	zipf          bool // clicks Zipf(1.2) over clips instead of uniform
	mixed         bool // open loop, a comment batch beside every 20 clicks
	setupReps     int  // set-ups per run; setup_s is their median
	checks        int  // check queries compared with the oracle per run
	// baseRate is the closed-loop rec_qps this workload's click mix reached
	// on the commit that added the benchmark, frozen here so the open-loop
	// rates stay absolute. The measured phase of a mixed workload runs at
	// openFactor × baseRate; the trace pass's ladder at rungFactors × it.
	baseRate float64
	trace    traceOps // op counts of the trace pass
}

const openFactor = 0.5

// Within a run, clicks get clickShare of --seconds; on a workload that is
// not mixed the comment batches follow in the rest, capped at maxBatches so
// a small corpus is not buried under more comments than it started with.
const (
	clickShare = 0.75
	maxBatches = 256
)

var workloads = []workload{
	{name: "browse_small", videos: 2000, users: 2000, setupReps: 3, checks: 96, baseRate: 370, trace: fullTrace},
	{name: "browse_large", videos: 20000, users: 20000, setupReps: 1, checks: 24, baseRate: 128, trace: fullTrace},
	{name: "browse_small_sharded", videos: 2000, users: 2000, shards: 4, setupReps: 3, checks: 96, baseRate: 190, trace: fullTrace},
	{name: "community_open", videos: 20000, users: 20000, zipf: true, mixed: true, setupReps: 1, checks: 24, baseRate: 128, trace: fullTrace},
}

// inputs are everything a run feeds the server, all drawn from the seed.
type inputs struct {
	seed    int64
	corpus  *corpus
	clicks  []string              // clicked clip ids, in order
	batches []map[string][]string // comment batches, in order
	checks  []int                 // clips whose answers are compared with the oracle
}

func newInputs(w workload, seed int64, c *corpus) *inputs {
	in := &inputs{seed: seed, corpus: c}
	for _, i := range c.clickIndexes(rand.New(rand.NewSource(seed+1)), 20000, w.zipf) {
		in.clicks = append(in.clicks, c.clips[i].id)
	}
	in.batches = c.commentBatches(rand.New(rand.NewSource(seed+2)), 1024)
	in.checks = rand.New(rand.NewSource(seed + 3)).Perm(len(c.clips))[:min(w.checks, len(c.clips))]
	return in
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result line the benchmark contract asks for.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as kept in an -out file.
type record struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	Commit        string             `json:"commit"`
	GoVersion     string             `json:"goVersion"`
	NumCPU        int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Ops           map[string]int     `json:"ops"`
	SegmentSpread map[string]float64 `json:"segmentSpread,omitempty"`
	ClickMs       map[string]float64 `json:"clickMs,omitempty"` // the click latency distribution
	Errors        []string           `json:"errors,omitempty"`
	summary
}

// outFile is an -out file: every run made into it, and no claim.
type outFile struct {
	Runs  []record `json:"runs"`
	Claim *string  `json:"claim"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		all     = flag.Bool("all", false, "run every workload, untraced then traced")
		seed    = flag.Int64("seed", 1, "seed all inputs are generated from")
		seconds = flag.Float64("seconds", 12, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: take the per-layer metrics instead of the end-to-end ones")
		runs    = flag.Int("runs", 1, "repeat with seeds seed, seed+1, …")
		out     = flag.String("out", "", "append each run to this JSON file")
		compare = flag.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var todo []workload
	for _, w := range workloads {
		if *all || w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	traces := []bool{*trace != 0}
	if *all {
		traces = []bool{false, true}
	}
	ok := true
	for r := 0; r < *runs; r++ {
		for _, w := range todo {
			for _, tr := range traces {
				rec, err := run(w, *seed+int64(r), *seconds, tr, "bench/out")
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				if *out != "" {
					if err := appendRecord(*out, rec); err != nil {
						fatal(err)
					}
				}
				for _, e := range rec.Errors {
					fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
				}
				line, err := json.Marshal(rec.summary)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%s\n", line)
				ok = ok && rec.Correct
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run makes one run of one workload: set-up, answer checks, then either
// the measured phases or the trace pass, then the restart check. Snapshots,
// journals and the span file go under outDir.
func run(w workload, seed int64, seconds float64, trace bool, outDir string) (*record, error) {
	rec := &record{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ops: map[string]int{}, SegmentSpread: map[string]float64{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var (
		c      *corpus
		d      *deployment
		parts  setupParts
		setups []float64
	)
	for i := 0; i < w.setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(tmp, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		if c, d, parts, err = setUp(w, dir); err != nil {
			return nil, err
		}
		setups = append(setups, parts.wall.Seconds())
	}
	defer d.close()
	heap := heapLiveMB()
	in := newInputs(w, seed, c)
	cl := newClient(d.baseURL)
	defer cl.close()

	note := func(p phase) {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		if p.firstErr != nil {
			rec.Errors = append(rec.Errors, p.firstErr.Error())
		}
	}
	chk := checkAnswers(w, in, d, cl)
	note(chk.phase)

	if trace {
		m, tr, err := tracePass(w, in, d, cl, parts, seconds)
		if err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json"), w, seed, m); err != nil {
			return nil, err
		}
		rec.Metrics = withUnits(m, perLayerUnits)
		rec.Ops["ladder"] = w.trace.ladder
		rec.Ops["updates"] = w.trace.updates
	} else {
		var clicks, updates phase
		if w.mixed {
			clicks = cl.openMix(in.clicks, in.batches, 0, openFactor*w.baseRate, secs(seconds))
			clicks.failed += clicks.backlog // due, never served
			clicks.attempted += clicks.backlog
			updates.updateMs = clicks.updateMs
		} else {
			clicks = cl.closedClicks(in.clicks, secs(seconds*clickShare))
			compareSamples(d, &clicks)
			updates = cl.closedUpdates(in.batches[:maxBatches], secs(seconds*(1-clickShare)))
			note(updates)
		}
		note(clicks)
		if len(clicks.clickMs) == 0 || len(updates.updateMs) == 0 {
			return nil, fmt.Errorf("nothing completed: %v", rec.Errors)
		}
		sorted := sortedCopy(clicks.clickMs)
		m := map[string]float64{
			"setup_s":       median(setups),
			"rec_p50_ms":    quantile(sorted, 0.50),
			"rec_p90_ms":    quantile(sorted, 0.90),
			"rec_qps":       float64(len(clicks.clickMs)) / clicks.elapsed.Seconds(),
			"update_p50_ms": median(updates.updateMs),
			"recall_at_10":  chk.recall,
			"heap_live_mb":  heap,
		}
		rec.Metrics = withUnits(m, endToEndUnits)
		rec.Ops["clicks"] = len(clicks.clickMs)
		rec.Ops["updates"] = len(updates.updateMs)
		rec.Ops["samplesCompared"] = len(clicks.samples)
		rec.ClickMs = map[string]float64{}
		for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
			rec.ClickMs[fmt.Sprintf("p%.0f", q*100)] = quantile(sorted, q)
		}
		rec.SegmentSpread["rec_p50_ms"] = segmentSpread(clicks.clickMs)
		rec.SegmentSpread["update_p50_ms"] = segmentSpread(updates.updateMs)
	}
	rec.Ops["checks"] = len(in.checks)

	// Every acknowledged update must survive a restart.
	if err := d.close(); err != nil {
		return nil, err
	}
	if !trace { // the trace pass ingests clips, which no journal records
		n, err := compareRestart(in, d)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			rec.Failed += n
			rec.Errors = append(rec.Errors, fmt.Sprintf("%d check answers differ after snapshot + journal replay", n))
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// checked is the outcome of the answer checks made before measuring.
type checked struct {
	phase
	recall float64
}

// checkAnswers fetches the check queries over HTTP and holds each answer
// to three references: a direct backend call (must be equal bit for bit),
// the exhaustive-scan oracle (overlap counted into recall_at_10), and, when
// sharded, a single engine over the same corpus.
func checkAnswers(w workload, in *inputs, d *deployment, cl *client) checked {
	var out checked
	or := newOracle(d.be)
	want := make([][]string, len(in.checks))
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(in.checks); i += runtime.NumCPU() {
				want[i] = or.top(in.corpus.clips[in.checks[i]].id, topK)
			}
		}()
	}
	wg.Wait()

	var single func(id string) ([]result, error)
	if w.shards > 1 {
		single = singleEngine(in.corpus)
	}
	var overlap int
	for i, q := range in.checks {
		id := in.corpus.clips[q].id
		out.attempted++
		resp, _, err := cl.recommend(id)
		if err != nil {
			out.fail(err)
			continue
		}
		direct, err := recommendDirect(d.be, id)
		if err != nil {
			out.fail(err)
			continue
		}
		if !equalResults(resp.Results, direct) {
			out.fail(fmt.Errorf("served answer for %s differs from a direct backend call", id))
			continue
		}
		if single != nil {
			ref, err := single(id)
			if err == nil {
				err = dominates(resp.Results, ref)
			}
			if err != nil {
				out.fail(fmt.Errorf("sharded answer for %s against a single engine: %w", id, err))
				continue
			}
		}
		wanted := make(map[string]bool, topK)
		for _, id := range want[i] {
			wanted[id] = true
		}
		for _, r := range resp.Results {
			if wanted[r.VideoID] {
				overlap++
			}
		}
	}
	out.recall = float64(overlap) / float64(topK*len(in.checks))
	return out
}

func equalResults(a, b []result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dominates holds a sharded answer to the single-engine one. Scoring is
// pointwise, so a clip in both lists must carry identical scores; and each
// shard refines a full candidate budget of its own, so the sharded pool is
// a superset and its score at every rank can only be equal or higher.
func dominates(sharded, single []result) error {
	if len(sharded) < len(single) {
		return fmt.Errorf("%d results, single engine has %d", len(sharded), len(single))
	}
	byID := make(map[string]result, len(single))
	for _, r := range single {
		byID[r.VideoID] = r
	}
	for i, r := range sharded {
		if s, ok := byID[r.VideoID]; ok && s != r {
			return fmt.Errorf("%s scored %v, single engine %v", r.VideoID, r, s)
		}
		if i < len(single) && r.Score < single[i].Score {
			return fmt.Errorf("rank %d scores %v, below the single engine's %v", i, r.Score, single[i].Score)
		}
	}
	return nil
}

// compareSamples replays the phase's kept click answers as direct backend
// calls; the corpus has not changed since, so they must be equal. Those
// that are not count as failed.
func compareSamples(d *deployment, p *phase) {
	for _, s := range p.samples {
		direct, err := recommendDirect(d.be, s.id)
		if err == nil && !equalResults(s.resp.Results, direct) {
			err = errors.New("differs from a direct backend call")
		}
		if err != nil {
			p.fail(fmt.Errorf("sampled answer for %s: %w", s.id, err))
		}
	}
}

// compareRestart reloads the starting snapshot, replays the journal, and
// counts check queries the restarted backend answers differently from the
// live one.
func compareRestart(in *inputs, d *deployment) (int, error) {
	restarted, err := d.replayed()
	if err != nil {
		return 0, fmt.Errorf("restart from snapshot + journal: %w", err)
	}
	bad := 0
	for _, q := range in.checks {
		id := in.corpus.clips[q].id
		live, err := recommendDirect(d.be, id)
		if err != nil {
			return 0, err
		}
		again, err := recommendDirect(restarted, id)
		if err != nil {
			return 0, err
		}
		if !equalResults(live, again) {
			bad++
		}
	}
	return bad, nil
}

func withUnits(m map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(m))
	for name, v := range m {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}

func appendRecord(path string, rec *record) error {
	var f outFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, *rec)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
