package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return e2e, layer, workloads
}

// TestMetricListsMatchBenchmarkJSON pins the benchmark's metric and
// workload lists to BENCHMARK.json, units included.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer, workloadNames := benchmarkJSON(t)
	if len(e2e) != len(e2eNames) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(e2e), len(e2eNames))
	}
	for _, n := range e2eNames {
		if _, ok := e2e[n]; !ok {
			t.Errorf("end-to-end metric %s missing from BENCHMARK.json", n)
		}
	}
	if len(layer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(layer), len(layerMetrics))
	}
	for n, lm := range layerMetrics {
		if layer[n] != lm.unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, benchmark unit %q", n, layer[n], lm.unit)
		}
		for _, w := range strings.Fields(lm.workloads) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("per-layer metric %s names unknown workload %s", n, w)
			}
		}
	}
	for _, w := range workloadNames {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w)
		}
	}
	if len(workloadNames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(workloadNames), len(workloads))
	}
}

// TestShortRuns runs every workload in short mode, untraced and traced,
// and checks the printed metrics: every end-to-end metric with its unit
// and a positive value; every per-layer metric with its unit; nothing on
// a layer the workload does not exercise; and identical deterministic
// outputs between two runs at one seed.
func TestShortRuns(t *testing.T) {
	e2e, _, _ := benchmarkJSON(t)
	for name, pass := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 1, short: true}
			out, err := measure(name, cfg, pass)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("untraced: correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(e2e) {
				t.Errorf("untraced run printed %d metrics, want %d", len(out.Metrics), len(e2e))
			}
			for n, unit := range e2e {
				m, ok := out.Metrics[n]
				if !ok || m.Unit != unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want unit %s and a positive value", n, m, ok, unit)
				}
			}
			fp := out.rep.fingerprint
			if len(fp) == 0 {
				t.Error("no deterministic outputs recorded")
			}

			cfg.trace = true
			tout, err := measure(name, cfg, pass)
			if err != nil {
				t.Fatal(err)
			}
			if !tout.Correct {
				t.Fatal("traced run failed its gate")
			}
			if len(tout.Metrics) != len(layerMetrics) {
				t.Errorf("traced run printed %d metrics, want %d", len(tout.Metrics), len(layerMetrics))
			}
			exercised := 0
			for n, lm := range layerMetrics {
				m, ok := tout.Metrics[n]
				if !ok || m.Unit != lm.unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", n, m, ok, lm.unit)
					continue
				}
				mine := lm.workloads == "" || slices.Contains(strings.Fields(lm.workloads), name)
				if !mine && m.Value != 0 {
					t.Errorf("per-layer %s = %v on %s, which does not exercise its layer", n, m.Value, name)
				}
				if mine && m.Value != 0 {
					exercised++
				}
			}
			if exercised == 0 {
				t.Error("traced run reported no non-zero per-layer metric of its own layers")
			}
			if diff := compareFingerprints(fp, tout.rep.fingerprint); len(diff) > 0 {
				t.Errorf("deterministic outputs differ between runs at one seed: %v", diff)
			}
		})
	}
}

// fakePass returns a pass whose traced run reports a different
// deterministic output, as a nondeterministic program would.
func fakePass(mismatch bool) func(config, *tracer) (*report, error) {
	return func(cfg config, tr *tracer) (*report, error) {
		rep := newReport()
		for _, n := range e2eNames {
			rep.setE2E(n, 1, "x")
		}
		rep.attempted = 10
		rep.fingerprint["cost"] = "1.5"
		if mismatch && tr != nil {
			rep.fingerprint["cost"] = "1.6"
		}
		return rep, nil
	}
}

func TestGateTripsOnForcedMismatch(t *testing.T) {
	cfg := config{seed: 1, seconds: 1, trace: true}
	out, err := measure("serve-steady", cfg, fakePass(false))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatal("gate tripped on identical passes")
	}
	out, err = measure("serve-steady", cfg, fakePass(true))
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != out.Attempted {
		t.Fatalf("gate passed a deterministic output that differs between passes: correct %v attempted %d failed %d",
			out.Correct, out.Attempted, out.Failed)
	}
	// The failure must show on success_ratio alone, beyond its bound, and
	// no timing may be reported beside it.
	bound := benchmarkBounds(t)["success_ratio"]
	s, ok := out.Metrics["success_ratio"]
	if !ok || s.Value >= 1-bound {
		t.Errorf("success_ratio = %+v (present %v), want below 1 - its bound %v", s, ok, bound)
	}
	if len(out.Metrics) != 1 {
		t.Errorf("a failed run reported %d metrics, want success_ratio only: %v", len(out.Metrics), out.Metrics)
	}
}

// benchmarkBounds reads each end-to-end metric's bound from BENCHMARK.json.
func benchmarkBounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

func TestGateTripsOnUntrustedTiming(t *testing.T) {
	rep := newReport()
	for _, n := range e2eNames {
		rep.setE2E(n, 1, "x")
	}
	rep.setLayer("core.submit_ns", 800, "ns")
	rep.heavyHeap = true
	gate(rep)
	if len(rep.mismatches) == 0 {
		t.Fatal("a ns timing from a heavy-heap process passed the gate")
	}
}

func TestGateTripsOnForeignLayerMetric(t *testing.T) {
	if got := checkLayers("train", map[string]metric{"wire.encode_ns": {1, "ns"}}); len(got) == 0 {
		t.Fatal("a wire metric reported on train passed the check")
	}
	if got := checkLayers("serve-steady", map[string]metric{"wire.encode_ns": {1, "ns"}}); len(got) != 0 {
		t.Fatalf("a wire metric on serve-steady was rejected: %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{0, 10}, 0.99); got != 9.9 {
		t.Errorf("p99 of {0,10} = %v, want 9.9", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
