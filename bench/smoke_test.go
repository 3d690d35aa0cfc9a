package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The smoke test runs every workload, untraced and traced, at a size that
// finishes in seconds, and holds what the program emits to BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	endToEnd := map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	for i, full := range workloads {
		if bf.Workloads[i].Name != full.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bf.Workloads[i].Name, full.name)
		}
		w := full
		w.videos, w.users = 200, 600
		w.setupReps, w.checks = 1, 8
		w.baseRate = 100
		w.trace = traceOps{ladder: 40, allocs: 10, pairs: 64, updates: 8, adds: 4}
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			for _, trace := range []bool{false, true} {
				rec, err := run(w, 1, 0.4, trace, out)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d errors=%v",
						trace, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for name, unit := range want {
					m, ok := rec.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s is in BENCHMARK.json but was not emitted", trace, name)
					case m.Unit != unit:
						t.Errorf("trace=%v: %s emitted in %q, BENCHMARK.json says %q", trace, name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: %s is %v", trace, name, m.Value)
					}
				}
				for name := range rec.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("trace=%v: %s was emitted but is not in BENCHMARK.json", trace, name)
					}
				}
				if !trace {
					for _, name := range []string{"setup_s", "rec_p50_ms", "rec_qps", "update_p50_ms", "heap_live_mb"} {
						if rec.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, rec.Metrics[name].Value)
						}
					}
					continue
				}
				v := func(name string) float64 { return rec.Metrics[name].Value }
				selfSum := v("server.http_self_us") + v("videorec.backend_self_us") +
					v("core.refine_us") + v("core.gather_us") + v("core.query_compile_us")
				if traced := v("bench.traced_http_us"); math.Abs(selfSum-traced) > 0.05*traced {
					t.Errorf("ladder self times sum to %.1f us, the traced round trip is %.1f us", selfSum, traced)
				}
				partSum := v("bench.generate_s") + v("core.ingest_s") + v("core.build_social_s") +
					v("store.save_s") + v("videorec.load_s") + v("server.listen_s")
				if wall := v("bench.setup_wall_s"); math.Abs(partSum-wall) > 0.05*wall {
					t.Errorf("set-up parts sum to %.4f s, set-up took %.4f s", partSum, wall)
				}
				b, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(b, &tf); err != nil {
					t.Fatal(err)
				}
				if len(tf.Spans) == 0 || tf.Workload != w.name {
					t.Errorf("span file holds %d spans for %q", len(tf.Spans), tf.Workload)
				}
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values []float64) string {
		var f outFile
		for i, v := range values {
			f.Runs = append(f.Runs, record{
				Workload: "browse_small", Seed: int64(i),
				summary: summary{Correct: true, Metrics: map[string]metric{"rec_p50_ms": {v, "ms"}}},
			})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{10, 10.1, 9.9, 10, 10.05})
	for _, tc := range []struct {
		name   string
		values []float64
		worse  bool
		want   string
	}{
		{"same.json", []float64{10.2, 10, 10.1, 9.95, 10}, false, "ok"},
		{"slow.json", []float64{13, 13.1, 12.9, 13, 13.05}, true, "worse"},
		{"noisy.json", []float64{6, 10, 14, 18, 9}, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, "../BENCHMARK.json", base, write(tc.name, tc.values))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !bytes.Contains(out.Bytes(), []byte(tc.want)) {
			t.Errorf("%s: worse=%v, want %v with a %q row:\n%s", tc.name, worse, tc.worse, tc.want, out.String())
		}
	}
}
