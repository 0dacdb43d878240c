package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCacheLevelsDecode: a CacheLevels list replaces the target's
// hierarchy instead of merging into it element by element, so a level
// inherits nothing the document leaves out — neither the default L1's
// latency nor the default L3's sharing — and a document without the key
// keeps the target's hierarchy.
func TestCacheLevelsDecode(t *testing.T) {
	cfg := Default(1)
	doc := `{"CacheLevels": [
		{"Name": "A", "SizeBytes": 32768, "Ways": 4, "LineBytes": 64},
		{"Name": "B", "SizeBytes": 262144, "Ways": 8, "LineBytes": 64, "LatencyCycles": 10},
		{"Name": "C", "SizeBytes": 1048576, "Ways": 16, "LineBytes": 64, "LatencyCycles": 30}
	]}`
	if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
		t.Fatal(err)
	}
	want := []CacheLevelConfig{
		{Name: "A", SizeBytes: 32 * KB, Ways: 4, LineBytes: 64},
		{Name: "B", SizeBytes: 256 * KB, Ways: 8, LineBytes: 64, LatencyCycles: 10},
		{Name: "C", SizeBytes: 1 * MB, Ways: 16, LineBytes: 64, LatencyCycles: 30},
	}
	if !reflect.DeepEqual(cfg.CacheLevels, want) {
		t.Errorf("levels merged with the target's:\ngot  %+v\nwant %+v", cfg.CacheLevels, want)
	}

	// Absent keys keep the target's hierarchy untouched.
	cfg = Default(256)
	keep := append([]CacheLevelConfig(nil), cfg.CacheLevels...)
	if err := json.Unmarshal([]byte(`{"Scale": 256}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.CacheLevels, keep) {
		t.Errorf("decode without cache keys rewrote the hierarchy: %+v", cfg.CacheLevels)
	}
}

// TestConfigRejectsUnknownKeys: a key the schema does not define fails
// the decode and the error names it, so neither a retired schema key
// nor a typo silently runs the default machine. The target is left as
// it was.
func TestConfigRejectsUnknownKeys(t *testing.T) {
	cases := []struct{ key, doc string }{
		{"L1", `{"L1": {"SizeBytes": 65536, "Ways": 8, "LineBytes": 64}}`},
		{"L2", `{"L2": {"SizeBytes": 524288, "Ways": 8, "LineBytes": 64}}`},
		{"L3", `{"L3": {"SizeBytes": 8388608, "Ways": 16, "LineBytes": 64}}`},
		{"L1Latency", `{"CPU": {"L1Latency": 3}}`},
		{"L2Latency", `{"CPU": {"L2Latency": 14}}`},
		{"L3Latency", `{"CPU": {"L3Latency": 40}}`},
		{"Fast", `{"Fast": {"CapacityBytes": 16777216}}`},
		{"Slow", `{"Slow": {"CapacityBytes": 83886080}}`},
		{"ClearOnModeSwith", `{"MemSys": {"ClearOnModeSwith": false}}`},
		// Knobs nothing in the simulator ever read.
		{"IssueBlk", `{"CPU": {"IssueBlk": 64}}`},
		{"BufferCacheBytes", `{"OS": {"BufferCacheBytes": 1048576}}`},
		// Typos, at the top level of a list element and inside a tier.
		{"LinBytes", `{"CacheLevels": [{"Name": "L1", "SizeBytes": 32768, "Ways": 4, "LinBytes": 64}]}`},
		{"Capacity", `{"memory_tiers": [{"NVM": {"Name": "pmem", "Capacity": 1024}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.key, func(t *testing.T) {
			cfg := Default(256)
			err := json.Unmarshal([]byte(tc.doc), &cfg)
			if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
				t.Fatalf("err %v, want one naming %q", err, tc.key)
			}
			if !reflect.DeepEqual(cfg, Default(256)) {
				t.Errorf("failed decode changed the target: %+v", cfg)
			}
		})
	}
}

// TestConfigMarshalRoundTrip: the marshal of a configuration decodes,
// onto a zero value or onto a different machine, back to the same
// configuration.
func TestConfigMarshalRoundTrip(t *testing.T) {
	twoLevel := Default(64)
	twoLevel.CacheLevels = []CacheLevelConfig{
		{Name: "L1", SizeBytes: 32 * KB, Ways: 4, LineBytes: 64, LatencyCycles: 4},
		{Name: "LLC", SizeBytes: 2 * MB, Ways: 16, LineBytes: 64, LatencyCycles: 30, Shared: true},
	}
	for name, want := range map[string]Config{
		"default":   Default(256),
		"nvm":       Default(256).WithNVMTier(128 * MB),
		"cxl":       Default(256).WithCXLTier(256 * MB),
		"two-level": twoLevel,
	} {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []Config{{}, Default(1).WithCXLTier(GB)} {
			got := target
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: round trip diverged:\nwant %+v\ngot  %+v", name, want, got)
			}
		}
	}
}

// FuzzConfigDecode: whatever document decodes onto Default(1), its
// marshal decodes fresh to a DeepEqual configuration, and Validate
// reaches the same verdict on both.
func FuzzConfigDecode(f *testing.F) {
	f.Add([]byte(`{"CacheLevels": [
		{"Name": "L1", "SizeBytes": 16384, "Ways": 2, "LineBytes": 32},
		{"Name": "L2", "SizeBytes": 131072, "Ways": 4, "LineBytes": 32, "LatencyCycles": 20, "Shared": true}
	], "CPU": {"Cores": 4}}`))
	f.Add([]byte(`{"memory_tiers": [
		{"DRAM": {"Name": "hbm", "CapacityBytes": 16777216, "Channels": 4}},
		{"Kind": "nvm", "NVM": {"Name": "pmem", "CapacityBytes": 83886080, "WearBlockBytes": 3}},
		{"CXL": {"Name": "far", "CapacityBytes": 1}, "Power": {"BackgroundMW": 1}}
	], "Scale": 3}`))
	f.Add([]byte(`{"MemSys": {"SegmentBytes": 1000, "ClearOnModeSwitch": false}, "OS": {"PageBytes": -1}, "CacheLevels": null}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		c := Default(1)
		if err := json.Unmarshal(doc, &c); err != nil {
			return
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var rt Config
		if err := json.Unmarshal(b, &rt); err != nil {
			t.Fatalf("re-decode of %s: %v", b, err)
		}
		if !reflect.DeepEqual(c, rt) {
			t.Fatalf("round trip diverged:\nfirst  %+v\nsecond %+v", c, rt)
		}
		if (c.Validate() == nil) != (rt.Validate() == nil) {
			t.Fatalf("validation disagreement: %v vs %v", c.Validate(), rt.Validate())
		}
	})
}
