package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects a file's untraced runs: workload → metric → one value
// per run.
func values(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareFiles applies BENCHMARK.json's bounds to two -out files and
// prints one row per (workload, end-to-end metric): "worse" when the new
// median is worse than the old by more than the bound, "unresolved" when
// either side's run-to-run spread is wider than the bound (so the medians
// cannot tell), "ok" otherwise. Every ratio is printed with its base. It
// reports whether any row was worse.
func compareFiles(w io.Writer, benchmarkPath, oldPath, newPath string) (bool, error) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	olds, err := values(oldPath)
	if err != nil {
		return false, err
	}
	news, err := values(newPath)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range olds {
		if news[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median (base)\tnew median\tnew/old\tbound\tspread old\tspread new\tverdict")
	anyWorse := false
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			o, n := olds[wl][m.Name], news[wl][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			worseBy := nm/om - 1
			if m.Better == "higher" {
				worseBy = 1 - nm/om
			}
			so, sn := iqrSpread(o), iqrSpread(n)
			verdict := "ok"
			switch {
			case so > m.Bound || sn > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (n=%d)\t%.4g (n=%d)\t%.3f\t%.2f\t%.3f\t%.3f\t%s\n",
				wl, m.Name, om, m.Unit, len(o), nm, len(n), nm/om, m.Bound, so, sn, verdict)
		}
	}
	return anyWorse, tw.Flush()
}
