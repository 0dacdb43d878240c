package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeShrink divides the workloads' instruction counts in the tests.
const smokeShrink = 25

// TestTracedRunMatchesUntraced checks that timing the policy and
// memtier layers does not change what the simulator computes: for each
// sim workload, the traced design's result digest equals chameleon-opt's.
// The wrappers must forward every optional interface the simulator and
// the designs probe for; a wrapper that dropped the devices' QueueDelay,
// for one, silently disabled PoM-style migration backpressure and made
// the churn workload diverge.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range []struct {
		name string
		spec simSpec
	}{{"sim-missheavy", missHeavy}, {"sim-resident", resident}, {"sim-churn", churn}} {
		t.Run(w.name, func(t *testing.T) {
			spec := w.spec.shrunk(smokeShrink)
			o, err := spec.options(7, simThreads)
			if err != nil {
				t.Fatal(err)
			}
			plain, _, _, err := timedRun(o, spec.instr)
			if err != nil {
				t.Fatal(err)
			}
			o.Policy = tracedPolicy
			traced, _, _, err := timedRun(o, spec.instr)
			if err != nil {
				t.Fatal(err)
			}
			if p, tr := resultDigest(plain), resultDigest(traced); p != tr {
				t.Errorf("traced digest %.12s, plain %.12s", tr, p)
			}
		})
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares, end-to-end or per-layer.
func benchmarkMetrics(t *testing.T, perLayer bool) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	list := doc.EndToEnd
	if perLayer {
		list = doc.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestBenchmarkSmoke runs every workload, plain and traced, at a tiny
// size and checks that each reports exactly the metrics BENCHMARK.json
// declares, with their units, and that no output check failed.
func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 3, trace: trace, minRuns: 2, maxRequests: 20, shrink: smokeShrink}
			r, err := runWorkload(w.name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, r.failed, r.attempted)
			}
			want := benchmarkMetrics(t, trace)
			for name, unit := range want {
				m, ok := r.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, name, m.Value)
				}
			}
			for name := range r.metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}
