package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// Two same-seed traced runs capped at the same request count replay the
// same work, so every count the layers report must repeat exactly.
func TestSameSeedCountsRepeat(t *testing.T) {
	counts := map[string][]string{
		"write-rank": {"core.iterations", "engine.certified_hits", "engine.certified_fallbacks",
			"engine.cache_hits", "engine.cache_misses", "response.csr_rebuilds_full", "response.csr_rebuilds_delta",
			"response.norm_rebuilds_full", "response.norm_rebuilds_delta", "durable.bytes_per_obs"},
		"ingest-durable": {"durable.bytes_per_obs", "durable.fsyncs_per_write", "core.iterations"},
	}
	for name, keys := range counts {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]map[string]float64
			for i := range runs {
				rep, err := measure(w, true, options{seed: 7, seconds: 120, workdir: t.TempDir(), maxRequests: 40})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct() {
					t.Fatalf("run %d failed its checks: %v", i, rep.violations)
				}
				runs[i] = rep.metrics
			}
			for _, k := range keys {
				if runs[0][k] != runs[1][k] {
					t.Errorf("%s: %v then %v", k, runs[0][k], runs[1][k])
				}
			}
		})
	}
}

// Every workload passes its correctness gate on a short untraced run and
// reports every end-to-end metric.
func TestUntracedRunsPassTheGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, false, options{seed: 3, seconds: 0.3, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("checks failed: %v", rep.violations)
			}
			if err := rep.print(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BENCHMARK.json lists the workloads and the metric tables of this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metricJSON, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g != (metricJSON{m.name, m.unit, m.better, m.bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %s %s %s %v", kind, i, g, m.name, m.unit, m.better, m.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}
