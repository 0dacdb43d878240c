package config

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	for _, scale := range []uint64{1, 2, 8, 64, 256} {
		if err := Default(scale).Validate(); err != nil {
			t.Errorf("Default(%d): %v", scale, err)
		}
	}
}

func TestDefaultTableI(t *testing.T) {
	c := Default(1)
	if c.CPU.Cores != 12 {
		t.Errorf("cores = %d, want 12", c.CPU.Cores)
	}
	if c.CPU.FreqHz != 3.6e9 {
		t.Errorf("freq = %v, want 3.6 GHz", c.CPU.FreqHz)
	}
	if c.TierCapacity(0) != 4*GB {
		t.Errorf("stacked capacity = %d, want 4 GB", c.TierCapacity(0))
	}
	if c.TierCapacity(1) != 20*GB {
		t.Errorf("off-chip capacity = %d, want 20 GB", c.TierCapacity(1))
	}
	if c.OS.PageFaultCycles != 100_000 {
		t.Errorf("page-fault latency = %d, want 100K", c.OS.PageFaultCycles)
	}
	if c.MemSys.SegmentBytes != 2*KB {
		t.Errorf("segment = %d, want 2 KB", c.MemSys.SegmentBytes)
	}
	// Bandwidth ratio: 128-bit @1.6 GHz vs 64-bit @0.8 GHz => 4x.
	ratio := c.Tier(0).DRAM.PeakBandwidth() / c.Tier(1).DRAM.PeakBandwidth()
	if ratio < 3.99 || ratio > 4.01 {
		t.Errorf("bandwidth ratio = %v, want 4", ratio)
	}
}

func TestScalePreservesRatios(t *testing.T) {
	base := Default(1)
	scaled := Default(64)
	if scaled.TierCapacity(0)*64 != base.TierCapacity(0) {
		t.Errorf("fast capacity not scaled by 64")
	}
	if scaled.TierCapacity(1)*64 != base.TierCapacity(1) {
		t.Errorf("slow capacity not scaled by 64")
	}
	if base.Ratio() != scaled.Ratio() {
		t.Errorf("capacity ratio changed under scaling: %d vs %d", base.Ratio(), scaled.Ratio())
	}
}

func TestScaledCachesFloored(t *testing.T) {
	c := Default(1 << 20)
	l2, ok := c.Level("L2")
	if !ok || l2.SizeBytes < 64*KB {
		t.Errorf("L2 scaled below floor: %+v", l2)
	}
	l3, ok := c.Level("L3")
	if !ok || l3.SizeBytes < 256*KB {
		t.Errorf("L3 scaled below floor: %+v", l3)
	}
	if got := c.LLC(); got != l3 {
		t.Errorf("LLC() = %+v, want the L3 level", got)
	}
}

func TestWithRatio(t *testing.T) {
	for _, ratio := range []int{3, 5, 7} {
		c, err := Default(8).WithRatio(ratio)
		if err != nil {
			t.Fatalf("WithRatio(%d): %v", ratio, err)
		}
		if got := c.Ratio(); got != ratio {
			t.Errorf("Ratio() = %d, want %d", got, ratio)
		}
		if c.TotalCapacity() != Default(8).TotalCapacity() {
			t.Errorf("ratio %d changed total capacity", ratio)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("WithRatio(%d) invalid: %v", ratio, err)
		}
	}
}

func TestWithRatioRejectsNonPositive(t *testing.T) {
	if _, err := Default(1).WithRatio(0); err == nil {
		t.Error("WithRatio(0) should fail")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"no cores", func(c *Config) { c.CPU.Cores = 0 }},
		{"no freq", func(c *Config) { c.CPU.FreqHz = 0 }},
		{"no MLP", func(c *Config) { c.CPU.MaxMLP = 0 }},
		{"bad L1", func(c *Config) { c.CacheLevels[0].Ways = 0 }},
		{"no cache levels", func(c *Config) { c.CacheLevels = nil }},
		{"unnamed level", func(c *Config) { c.CacheLevels[1].Name = "" }},
		{"duplicate level names", func(c *Config) { c.CacheLevels[1].Name = "L1" }},
		{"line not power of two", func(c *Config) { c.CacheLevels[0].LineBytes = 48 }},
		{"line below 4 B", func(c *Config) { c.CacheLevels[0].LineBytes = 2 }},
		{"cache under one set", func(c *Config) { c.CacheLevels[0].SizeBytes = 64 }},
		{"decreasing latency", func(c *Config) { c.CacheLevels[2].LatencyCycles = 1 }},
		{"no fast capacity", func(c *Config) { c.MemoryTiers[0].DRAM.CapacityBytes = 0 }},
		{"no channels", func(c *Config) { c.MemoryTiers[1].DRAM.Channels = 0 }},
		{"one tier only", func(c *Config) { c.MemoryTiers = c.MemoryTiers[:1] }},
		{"duplicate tier names", func(c *Config) { c.MemoryTiers[1].DRAM.Name = c.MemoryTiers[0].DRAM.Name }},
		{"unknown tier kind", func(c *Config) { c.MemoryTiers[0].Kind = "sram" }},
		{"zero NVM capacity", func(c *Config) {
			c.MemoryTiers = append(c.MemoryTiers, MemTierConfig{NVM: &NVMConfig{Name: "pmem"}})
		}},
		{"bad segment", func(c *Config) { c.MemSys.SegmentBytes = 1000 }},
		{"segment under line", func(c *Config) { c.MemSys.CacheLineBytes = 0 }},
		{"bad page", func(c *Config) { c.OS.PageBytes = 3000 }},
		{"huge page misaligned", func(c *Config) { c.OS.HugePageBytes = 5000 }},
		{"capacity not segment multiple", func(c *Config) { c.MemoryTiers[0].DRAM.CapacityBytes += 1 }},
	}
	for _, m := range mutations {
		c := Default(8)
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestPeakBandwidth(t *testing.T) {
	d := DRAMConfig{Channels: 2, BusWidthBits: 128, BusFreqHz: 1.6e9}
	// 2 channels * 16 B * 2 (DDR) * 1.6e9 = 102.4 GB/s
	if got := d.PeakBandwidth(); got != 102.4e9 {
		t.Errorf("PeakBandwidth = %v, want 102.4e9", got)
	}
}

func TestClearOnModeSwitchJSON(t *testing.T) {
	var m MemSysConfig
	if err := json.Unmarshal([]byte(`{"ClearOnModeSwitch": true}`), &m); err != nil {
		t.Fatal(err)
	}
	if !m.ClearOnModeSwitch {
		t.Error("ClearOnModeSwitch key not decoded")
	}
	b, err := json.Marshal(Default(256).MemSys)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"ClearOnModeSwitch":true`) {
		t.Errorf("marshal lost ClearOnModeSwitch: %s", b)
	}
}
