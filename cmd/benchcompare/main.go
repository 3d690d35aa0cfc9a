// Command benchcompare diffs two vrecbench JSON reports, printing per-
// workload deltas of ns_per_op and allocs_per_op. It powers `make
// bench-compare`, which tracks serving-path performance from one checked-in
// BENCH_PR*.json to the next.
//
// It also understands vrecload reports (kind "vrecload", BENCH_LOAD_*.json):
// when both inputs are load reports, the diff is per-scenario goodput and
// latency-percentile deltas instead — `make load-compare`. For goodput a
// positive delta is an improvement; for p50/p99/p999 a negative one is.
//
// Usage:
//
//	go run ./cmd/benchcompare -old BENCH_PR3.json -new BENCH_PR5.json
//	go run ./cmd/benchcompare -old BENCH_LOAD_PR9.json -new BENCH_LOAD.json
//
// Exit status is 0 whenever the tool has something sensible to say — also
// when the baseline file does not exist yet (first run on a branch, CI cache
// miss) or when the two reports share no workload names (a renamed suite):
// both cases print a clear note and exit 0 so pipelines treat them as "no
// comparison available", not as failures. Regressions are reported, not
// enforced; the numbers depend on the machine, so CI treats the diff as an
// informational artifact. Only malformed inputs (unreadable flags, a file
// that exists but does not parse) exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	QPS         float64 `json:"qps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// scenario is one vrecload measurement row — the goodput/latency family of a
// load report, matched across files by scenario name.
type scenario struct {
	Name         string  `json:"name"`
	GoodputQPS   float64 `json:"goodput_qps"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	ShedRate     float64 `json:"shed_rate"`
	DegradedRate float64 `json:"degraded_rate"`
}

type report struct {
	Kind       string     `json:"kind"` // "" = vrecbench, "vrecload" = load report
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Videos     int        `json:"videos"`
	Results    []result   `json:"results"`
	Scenarios  []scenario `json:"scenarios"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// delta formats a relative change, signed, as a percentage. A negative
// ns_per_op or allocs_per_op delta is an improvement.
func delta(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "      ="
		}
		return "    new"
	}
	return fmt.Sprintf("%+6.1f%%", (newV-oldV)/oldV*100)
}

func main() {
	var (
		oldPath = flag.String("old", "", "baseline vrecbench JSON")
		newPath = flag.String("new", "", "candidate vrecbench JSON")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		log.Fatal("benchcompare: -old and -new are both required")
	}
	oldRep, err := load(*oldPath)
	if os.IsNotExist(err) {
		// No baseline is a normal state (first bench on a branch, pruned CI
		// cache), not an error: say so and succeed, so `make bench-compare`
		// and CI steps do not fail on repos without a prior run.
		fmt.Printf("benchcompare: baseline %s does not exist — nothing to compare against.\n", *oldPath)
		fmt.Printf("Run vrecbench to produce one, or pass an older BENCH_PR*.json with -old.\n")
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := load(*newPath)
	if os.IsNotExist(err) {
		fmt.Printf("benchcompare: candidate %s does not exist — nothing to compare.\n", *newPath)
		fmt.Printf("Run vrecbench -out %s first.\n", *newPath)
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	if oldRep.Kind == "vrecload" || newRep.Kind == "vrecload" {
		if oldRep.Kind != newRep.Kind {
			// One microbenchmark report, one load report: nothing lines up.
			// A clear note beats a table of "new"/"gone" rows.
			fmt.Printf("benchcompare: %s is kind %q but %s is kind %q — reports are not comparable.\n",
				*oldPath, kindName(oldRep.Kind), *newPath, kindName(newRep.Kind))
			return
		}
		compareLoad(*oldPath, oldRep, *newPath, newRep)
		return
	}

	oldBy := make(map[string]result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	newBy := make(map[string]result, len(newRep.Results))
	names := make([]string, 0, len(newRep.Results))
	shared := 0
	for _, r := range newRep.Results {
		newBy[r.Name] = r
		names = append(names, r.Name)
		if _, ok := oldBy[r.Name]; ok {
			shared++
		}
	}
	sort.Strings(names)
	if shared == 0 {
		// Disjoint workload sets: every row would be "new"/"gone", which is a
		// rename or a suite rewrite, not a measurable regression. Report and
		// succeed rather than print a meaningless table.
		fmt.Printf("benchcompare: %s and %s share no workload names (%d baseline, %d candidate) — no comparable rows.\n",
			*oldPath, *newPath, len(oldRep.Results), len(newRep.Results))
		return
	}

	fmt.Printf("baseline:  %s (go %s, GOMAXPROCS %d, %d videos)\n", *oldPath, oldRep.GoVersion, oldRep.GOMAXPROCS, oldRep.Videos)
	fmt.Printf("candidate: %s (go %s, GOMAXPROCS %d, %d videos)\n\n", *newPath, newRep.GoVersion, newRep.GOMAXPROCS, newRep.Videos)
	fmt.Printf("%-28s %14s %14s %8s   %12s %12s %8s\n",
		"workload", "ns/op old", "ns/op new", "Δns", "allocs old", "allocs new", "Δallocs")
	for _, name := range names {
		n := newBy[name]
		o, ok := oldBy[name]
		if !ok {
			fmt.Printf("%-28s %14s %14.0f %8s   %12s %12.1f %8s\n",
				name, "-", n.NsPerOp, "new", "-", n.AllocsPerOp, "new")
			continue
		}
		fmt.Printf("%-28s %14.0f %14.0f %8s   %12.1f %12.1f %8s\n",
			name, o.NsPerOp, n.NsPerOp, delta(o.NsPerOp, n.NsPerOp),
			o.AllocsPerOp, n.AllocsPerOp, delta(o.AllocsPerOp, n.AllocsPerOp))
	}
	for _, r := range oldRep.Results {
		if _, ok := newBy[r.Name]; !ok {
			fmt.Printf("%-28s %14.0f %14s %8s   %12.1f %12s %8s\n",
				r.Name, r.NsPerOp, "-", "gone", r.AllocsPerOp, "-", "gone")
		}
	}
}

func kindName(kind string) string {
	if kind == "" {
		return "vrecbench"
	}
	return kind
}

// compareLoad diffs two vrecload reports scenario by scenario: goodput and
// the latency-percentile family, the numbers the overload-control acceptance
// criteria are written against.
func compareLoad(oldPath string, oldRep *report, newPath string, newRep *report) {
	oldBy := make(map[string]scenario, len(oldRep.Scenarios))
	for _, s := range oldRep.Scenarios {
		oldBy[s.Name] = s
	}
	newBy := make(map[string]scenario, len(newRep.Scenarios))
	names := make([]string, 0, len(newRep.Scenarios))
	shared := 0
	for _, s := range newRep.Scenarios {
		newBy[s.Name] = s
		names = append(names, s.Name)
		if _, ok := oldBy[s.Name]; ok {
			shared++
		}
	}
	sort.Strings(names)
	if shared == 0 {
		fmt.Printf("benchcompare: %s and %s share no scenario names (%d baseline, %d candidate) — no comparable rows.\n",
			oldPath, newPath, len(oldRep.Scenarios), len(newRep.Scenarios))
		return
	}

	fmt.Printf("baseline:  %s (go %s, GOMAXPROCS %d, %d videos)\n", oldPath, oldRep.GoVersion, oldRep.GOMAXPROCS, oldRep.Videos)
	fmt.Printf("candidate: %s (go %s, GOMAXPROCS %d, %d videos)\n\n", newPath, newRep.GoVersion, newRep.GOMAXPROCS, newRep.Videos)
	fmt.Printf("%-20s %10s %10s %8s   %9s %9s %8s   %9s %9s %8s\n",
		"scenario", "qps old", "qps new", "Δqps", "p99 old", "p99 new", "Δp99", "p999 old", "p999 new", "Δp999")
	for _, name := range names {
		n := newBy[name]
		o, ok := oldBy[name]
		if !ok {
			fmt.Printf("%-20s %10s %10.1f %8s   %9s %9.1f %8s   %9s %9.1f %8s\n",
				name, "-", n.GoodputQPS, "new", "-", n.P99Ms, "new", "-", n.P999Ms, "new")
			continue
		}
		fmt.Printf("%-20s %10.1f %10.1f %8s   %9.1f %9.1f %8s   %9.1f %9.1f %8s\n",
			name, o.GoodputQPS, n.GoodputQPS, delta(o.GoodputQPS, n.GoodputQPS),
			o.P99Ms, n.P99Ms, delta(o.P99Ms, n.P99Ms),
			o.P999Ms, n.P999Ms, delta(o.P999Ms, n.P999Ms))
	}
	for _, s := range oldRep.Scenarios {
		if _, ok := newBy[s.Name]; !ok {
			fmt.Printf("%-20s %10.1f %10s %8s   %9.1f %9s %8s   %9.1f %9s %8s\n",
				s.Name, s.GoodputQPS, "-", "gone", s.P99Ms, "-", "gone", s.P999Ms, "-", "gone")
		}
	}
}
