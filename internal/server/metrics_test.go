package server

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"chameleon/internal/cache"
	"chameleon/internal/sim"
)

// TestExpvarSimAggregateKeysSorted pins the rendering order of the
// "sim" expvar aggregate: the JSON document lists metric keys sorted,
// so run-to-run diffs of /debug/vars (and golden files built from it)
// are stable. chameleon-sim -counters gets the same guarantee from
// stats.Snapshot.Keys (see TestSnapshotKeysSorted).
func TestExpvarSimAggregateKeysSorted(t *testing.T) {
	m := NewMetrics()
	run := &sim.Result{Policy: "pom", MaxCycles: 7, GeoMeanIPC: 0.5,
		Levels: []sim.LevelResult{{Level: "L3", Stats: cache.Stats{Hits: 3}}}}
	m.ObserveRun(run)
	m.ObserveRun(run)

	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(m.Vars().String()), &doc); err != nil {
		t.Fatalf("expvar map is not valid JSON: %v", err)
	}
	raw, ok := doc["sim"]
	if !ok {
		t.Fatal(`expvar map has no "sim" entry`)
	}
	keys := jsonKeyOrder(t, raw)
	want := append(run.Snapshot().Keys(), "runs")
	sort.Strings(want)
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("sim aggregate key order = %v, want sorted %v", keys, want)
	}

	var agg map[string]float64
	if err := json.Unmarshal(raw, &agg); err != nil {
		t.Fatal(err)
	}
	if agg["runs"] != 2 || agg["max_cycles"] != 14 || agg["l3.hits"] != 6 {
		t.Errorf("sim aggregate = %v, want two accumulated observations", agg)
	}
}

// jsonKeyOrder returns the top-level object keys in document order.
func jsonKeyOrder(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		t.Fatalf("sim entry is not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
