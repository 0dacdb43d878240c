package server

import (
	"encoding/json"
	"strings"
	"testing"

	"chameleon/internal/stats"
)

// fakeSimSource exports deliberately unsorted metric names.
type fakeSimSource struct{}

func (fakeSimSource) Name() string { return "fake" }
func (fakeSimSource) Snapshot() stats.Snapshot {
	return stats.Snapshot{"z_last": 1, "a_first": 2, "mid.dle": 3}
}

// TestExpvarSimAggregateKeysSorted pins the rendering order of the
// "sim" expvar aggregate: the JSON document lists metric keys sorted,
// so run-to-run diffs of /debug/vars (and golden files built from it)
// are stable. chameleon-sim -counters gets the same guarantee from
// stats.Snapshot.Keys (see TestSnapshotKeysSorted).
func TestExpvarSimAggregateKeysSorted(t *testing.T) {
	m := NewMetrics()
	m.ObserveSim(fakeSimSource{})
	m.ObserveSim(fakeSimSource{})

	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(m.Vars().String()), &doc); err != nil {
		t.Fatalf("expvar map is not valid JSON: %v", err)
	}
	raw, ok := doc["sim"]
	if !ok {
		t.Fatal(`expvar map has no "sim" entry`)
	}
	keys := jsonKeyOrder(t, raw)
	want := []string{"a_first", "mid.dle", "runs", "z_last"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("sim aggregate key order = %v, want sorted %v", keys, want)
	}

	var sim map[string]float64
	if err := json.Unmarshal(raw, &sim); err != nil {
		t.Fatal(err)
	}
	if sim["runs"] != 2 || sim["z_last"] != 2 || sim["a_first"] != 4 {
		t.Errorf("sim aggregate = %v, want two accumulated observations", sim)
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
