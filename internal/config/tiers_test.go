package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestMemoryTiersDecode: a memory_tiers list replaces the target's
// stack, and a document without the key keeps it.
func TestMemoryTiersDecode(t *testing.T) {
	// A memory_tiers list replaces the target's stack wholesale; the
	// document's NVM tier must not inherit a DRAM section from the
	// element it lands on.
	cfg := Default(256)
	doc := `{"memory_tiers": [
		{"DRAM": {"Name": "hbm", "CapacityBytes": 16777216, "Channels": 4, "RanksPerChan": 2,
			"BanksPerRank": 8, "BusFreqHz": 1.6e9, "BusWidthBits": 128, "RowBytes": 2048,
			"TCAS": 11, "TRCD": 11, "TRP": 11, "TRAS": 28, "TRFCNanos": 138, "TREFINanos": 7800}},
		{"NVM": {"Name": "pmem", "CapacityBytes": 83886080}}
	]}`
	if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
		t.Fatal(err)
	}
	if got := len(cfg.MemoryTiers); got != 2 {
		t.Fatalf("tier list not replaced: %d tiers", got)
	}
	if cfg.MemoryTiers[1].DRAM != nil || cfg.MemoryTiers[1].NVM == nil {
		t.Errorf("NVM tier merged with the target's DRAM element: %+v", cfg.MemoryTiers[1])
	}
	if cfg.MemoryTiers[1].ResolvedKind() != TierNVM {
		t.Errorf("kind not inferred from the NVM section: %q", cfg.MemoryTiers[1].ResolvedKind())
	}

	// Absent keys keep the target's stack untouched.
	cfg = Default(256)
	want := CloneTiers(cfg.MemoryTiers)
	if err := json.Unmarshal([]byte(`{"Scale": 256}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.MemoryTiers, want) {
		t.Errorf("decode without memory keys rewrote the stack: %+v", cfg.MemoryTiers)
	}
}

// TestMemoryTiersRejection table-drives the malformed stacks the
// validator must refuse.
func TestMemoryTiersRejection(t *testing.T) {
	validateErrs := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero capacity", func(c *Config) {
			n := DefaultNVM(0)
			c.MemoryTiers = append(c.MemoryTiers, MemTierConfig{NVM: &n})
		}, "capacity"},
		{"unknown kind", func(c *Config) { c.MemoryTiers[0].Kind = "sram" }, "unknown kind"},
		{"ambiguous sections", func(c *Config) {
			n := DefaultNVM(GB)
			c.MemoryTiers[0].NVM = &n
			c.MemoryTiers[0].Kind = ""
		}, "exactly one device section"},
		{"duplicate names", func(c *Config) {
			c.MemoryTiers[1].DRAM.Name = "stacked"
		}, "duplicate"},
		{"unnamed tier", func(c *Config) { c.MemoryTiers[0].DRAM.Name = "" }, "named"},
		{"single tier", func(c *Config) { c.MemoryTiers = c.MemoryTiers[:1] }, "two memory tiers"},
		{"kind without section", func(c *Config) {
			c.MemoryTiers = append(c.MemoryTiers, MemTierConfig{Kind: TierNVM})
		}, "exactly one device section"},
	}
	for _, tc := range validateErrs {
		c := Default(256)
		tc.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestWithNVMTier: the one-line three-tier upgrade appends a valid,
// named NVM tier and leaves the source config untouched.
func TestWithNVMTier(t *testing.T) {
	base := Default(256)
	c := base.WithNVMTier(128 * MB)
	if base.NumTiers() != 2 {
		t.Fatalf("WithNVMTier mutated its receiver: %d tiers", base.NumTiers())
	}
	if c.NumTiers() != 3 || c.Tier(2).ResolvedKind() != TierNVM {
		t.Fatalf("appended stack wrong: %d tiers, kind %q", c.NumTiers(), c.Tier(2).ResolvedKind())
	}
	if c.TierCapacity(2) != 128*MB {
		t.Errorf("NVM capacity = %d, want %d", c.TierCapacity(2), 128*MB)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("three-tier config invalid: %v", err)
	}
	if x := base.WithCXLTier(256 * MB); x.Tier(2).ResolvedKind() != TierCXL || x.Validate() != nil {
		t.Errorf("WithCXLTier stack invalid: %v", x.Validate())
	}
}
