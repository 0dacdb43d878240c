// Package config defines the simulated machine configuration.
//
// The defaults reproduce Table I of the CHAMELEON paper (MICRO 2018):
// 12 out-of-order cores at 3.6 GHz, a three-level cache hierarchy, a
// 4 GB high-bandwidth stacked DRAM, a 20 GB off-chip DRAM, and an SSD
// page-fault latency of 100K CPU cycles.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Common byte sizes.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// CPUConfig describes the simulated cores.
type CPUConfig struct {
	Cores   int     // number of cores (one application instance each)
	FreqHz  float64 // core clock frequency
	BaseCPI float64 // cycles per non-memory instruction when not stalled
	MaxMLP  int     // maximum overlapped LLC misses per core
}

// CacheLevelConfig describes one level of the cache hierarchy, ordered
// from the level closest to the core (index 0) to the last-level cache.
type CacheLevelConfig struct {
	// Name labels the level in statistics and error messages ("L1",
	// "L2", ...). Names must be unique within a hierarchy.
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// LatencyCycles is the cumulative hit latency of this level in CPU
	// cycles, measured from the core. The first level's latency is
	// assumed hidden by the core model (BaseCPI) and is never charged;
	// deeper levels charge the delta over the previous level on the way
	// down. Latencies must be non-decreasing across the stack.
	LatencyCycles uint64
	// Shared marks the level as one cache shared by every core;
	// otherwise each core gets a private instance.
	Shared bool
}

// DRAMConfig describes one DRAM device (a set of channels).
type DRAMConfig struct {
	Name          string
	CapacityBytes uint64
	Channels      int
	RanksPerChan  int
	BanksPerRank  int
	BusFreqHz     float64 // bus clock; data rate is 2x (DDR)
	BusWidthBits  int     // per channel
	RowBytes      int     // row-buffer size per bank
	TCAS          int     // in bus cycles
	TRCD          int     // in bus cycles
	TRP           int     // in bus cycles
	TRAS          int     // in bus cycles
	TRFCNanos     float64 // refresh cycle time, nanoseconds
	TREFINanos    float64 // refresh interval, nanoseconds
}

// PeakBandwidth returns the aggregate peak data bandwidth in bytes/sec.
func (d DRAMConfig) PeakBandwidth() float64 {
	return float64(d.Channels) * float64(d.BusWidthBits) / 8 * 2 * d.BusFreqHz
}

// OSConfig describes operating-system level parameters.
type OSConfig struct {
	PageBytes       int    // base page size (4 KB)
	HugePageBytes   int    // THP size (2 MB)
	PageFaultCycles uint64 // major fault (SSD) latency in CPU cycles
}

// MemSysConfig describes the heterogeneous memory-system organisation.
type MemSysConfig struct {
	SegmentBytes int // PoM/Chameleon segment size (2 KB in the paper)
	// SwapThreshold is the competing-counter value an off-chip segment
	// must accumulate before a PoM swap. The default, 8, models the
	// aggressive-swap PoM baseline the paper compares against
	// (DESIGN.md §4): it sits below the 32 lines of a 2 KB segment, so
	// a single streaming sweep through a segment can already trigger a
	// swap.
	SwapThreshold     int
	SRTCacheEntries   int  // on-die SRT cache entries (0 disables modelling)
	CacheLineBytes    int  // transfer granularity (64 B)
	ClearOnModeSwitch bool // security clearing on cache<->PoM transitions
}

// Config is the complete simulated system configuration.
type Config struct {
	CPU CPUConfig
	// CacheLevels is the cache hierarchy, ordered from the core
	// outward. Any depth >= 1 is valid; the last entry is the LLC that
	// filters accesses into the memory system. A CacheLevels list in a
	// document replaces the decode target's whole hierarchy.
	CacheLevels []CacheLevelConfig
	// MemoryTiers is the ordered memory-tier stack, fastest first
	// (canonical JSON key "memory_tiers"). The default is the paper's
	// two DRAM tiers (stacked + off-chip); any length >= 2 and mix of
	// dram/nvm/cxl kinds is valid. A memory_tiers list in a document
	// replaces the decode target's whole stack.
	MemoryTiers []MemTierConfig `json:"memory_tiers"`
	OS          OSConfig
	MemSys      MemSysConfig

	// Scale divides the memory-tier capacities (and should be matched
	// by a proportional reduction of workload footprints). Scale 1 is
	// the paper's full-size system. Scale must be a power of two.
	Scale uint64
}

// NumTiers returns the number of configured memory tiers.
func (c Config) NumTiers() int { return len(c.MemoryTiers) }

// Tier returns tier i, or a zero value when out of range.
func (c Config) Tier(i int) MemTierConfig {
	if i < 0 || i >= len(c.MemoryTiers) {
		return MemTierConfig{}
	}
	return c.MemoryTiers[i]
}

// TierCapacity returns tier i's capacity (0 when out of range).
func (c Config) TierCapacity(i int) uint64 { return c.Tier(i).CapacityBytes() }

// LLC returns the last (memory-side) cache level, or a zero value when
// no levels are configured.
func (c Config) LLC() CacheLevelConfig {
	if len(c.CacheLevels) == 0 {
		return CacheLevelConfig{}
	}
	return c.CacheLevels[len(c.CacheLevels)-1]
}

// Level returns the named cache level.
func (c Config) Level(name string) (CacheLevelConfig, bool) {
	for _, lv := range c.CacheLevels {
		if lv.Name == name {
			return lv, true
		}
	}
	return CacheLevelConfig{}, false
}

// UnmarshalJSON decodes a configuration onto c: keys the document
// omits keep the target's values, a CacheLevels or memory_tiers list
// replaces the target's whole list, and an unknown key is an error
// that names it.
func (c *Config) UnmarshalJSON(b []byte) error {
	var lists struct {
		CacheLevels json.RawMessage
		MemoryTiers json.RawMessage `json:"memory_tiers"`
	}
	if err := json.Unmarshal(b, &lists); err != nil {
		return err
	}
	type plain Config // plain drops the method, avoiding recursion
	p := plain(*c)
	// encoding/json decodes a list element onto the element already at
	// its index, so a document's level or tier would inherit every field
	// it omits (the default L1's latency, the default L3's sharing, a
	// DRAM section inside an NVM tier). Incoming lists decode fresh.
	if lists.CacheLevels != nil {
		p.CacheLevels = nil
	}
	if lists.MemoryTiers != nil {
		p.MemoryTiers = nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return err
	}
	*c = Config(p)
	return nil
}

// Default returns the Table I configuration at the given scale divisor.
// scale == 1 reproduces the paper's 4 GB + 20 GB system. Larger scales
// divide the DRAM capacities and, to preserve the working-set:capacity
// ratios the results depend on, also shrink the L2/L3 caches (floored
// at 64 KB / 256 KB) — otherwise a scaled-down stacked DRAM would be no
// larger than the unscaled LLC.
func Default(scale uint64) Config {
	if scale == 0 {
		scale = 1
	}
	l2 := 256 * KB / int(scale)
	if l2 < 64*KB {
		l2 = 64 * KB
	}
	l3 := 12 * MB / int(scale)
	if l3 < 256*KB {
		l3 = 256 * KB
	}
	c := Config{
		CPU: CPUConfig{
			Cores:   12,
			FreqHz:  3.6e9,
			BaseCPI: 0.33, // ~3-wide effective issue
			MaxMLP:  4,
		},
		CacheLevels: []CacheLevelConfig{
			{Name: "L1", SizeBytes: 32 * KB, Ways: 4, LineBytes: 64, LatencyCycles: 4},
			{Name: "L2", SizeBytes: l2, Ways: 8, LineBytes: 64, LatencyCycles: 12},
			{Name: "L3", SizeBytes: l3, Ways: 16, LineBytes: 64, LatencyCycles: 38, Shared: true},
		},
		MemoryTiers: []MemTierConfig{
			{Kind: TierDRAM, DRAM: &DRAMConfig{
				Name:          "stacked",
				CapacityBytes: 4 * GB / scale,
				Channels:      2,
				RanksPerChan:  2,
				BanksPerRank:  8,
				BusFreqHz:     1.6e9,
				BusWidthBits:  128,
				RowBytes:      2 * KB,
				TCAS:          11, TRCD: 11, TRP: 11, TRAS: 28,
				TRFCNanos:  138,
				TREFINanos: 7800,
			}},
			{Kind: TierDRAM, DRAM: &DRAMConfig{
				Name:          "offchip",
				CapacityBytes: 20 * GB / scale,
				Channels:      2,
				RanksPerChan:  2,
				BanksPerRank:  8,
				BusFreqHz:     0.8e9,
				BusWidthBits:  64,
				RowBytes:      8 * KB,
				TCAS:          11, TRCD: 11, TRP: 11, TRAS: 28,
				TRFCNanos:  530,
				TREFINanos: 7800,
			}},
		},
		OS: OSConfig{
			PageBytes:       4 * KB,
			HugePageBytes:   2 * MB,
			PageFaultCycles: 100_000,
		},
		MemSys: MemSysConfig{
			SegmentBytes:      2 * KB,
			SwapThreshold:     8,
			SRTCacheEntries:   32 * 1024,
			CacheLineBytes:    64,
			ClearOnModeSwitch: true,
		},
		Scale: scale,
	}
	return c
}

// WithRatio returns a copy of c with the first:second tier capacity
// ratio set to 1:ratio while keeping their combined capacity constant,
// mirroring the paper's sensitivity study (1:3 = 6+18 GB, 1:5 = 4+20 GB,
// 1:7 = 3+21 GB). Deeper tiers are untouched.
func (c Config) WithRatio(ratio int) (Config, error) {
	if ratio < 1 {
		return c, fmt.Errorf("config: ratio must be >= 1, got %d", ratio)
	}
	if len(c.MemoryTiers) < 2 {
		return c, fmt.Errorf("config: ratio requires at least two memory tiers, got %d", len(c.MemoryTiers))
	}
	total := c.TierCapacity(0) + c.TierCapacity(1)
	fast := total / uint64(ratio+1)
	// Round down to a segment-group friendly boundary.
	seg := uint64(c.MemSys.SegmentBytes)
	fast -= fast % seg
	tiers := CloneTiers(c.MemoryTiers)
	tiers[0].SetCapacity(fast)
	tiers[1].SetCapacity(total - fast)
	c.MemoryTiers = tiers
	return c, nil
}

// TotalCapacity returns the summed capacity of every memory tier — the
// OS-visible capacity when the whole stack is exposed as memory.
func (c Config) TotalCapacity() uint64 {
	var total uint64
	for _, t := range c.MemoryTiers {
		total += t.CapacityBytes()
	}
	return total
}

// Ratio returns the second:first tier capacity ratio rounded to the
// nearest integer (5 for the default 4+20 GB system).
func (c Config) Ratio() int {
	fast, slow := c.TierCapacity(0), c.TierCapacity(1)
	if fast == 0 {
		return 0
	}
	return int((slow + fast/2) / fast)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	var errs []error
	if c.CPU.Cores <= 0 {
		errs = append(errs, errors.New("config: CPU.Cores must be positive"))
	}
	if c.CPU.FreqHz <= 0 {
		errs = append(errs, errors.New("config: CPU.FreqHz must be positive"))
	}
	if c.CPU.MaxMLP <= 0 {
		errs = append(errs, errors.New("config: CPU.MaxMLP must be positive"))
	}
	if len(c.CacheLevels) == 0 {
		errs = append(errs, errors.New("config: at least one cache level is required"))
	}
	names := make(map[string]bool, len(c.CacheLevels))
	var prevLat uint64
	for i, lv := range c.CacheLevels {
		name := lv.Name
		if name == "" {
			errs = append(errs, fmt.Errorf("config: cache level %d must be named", i))
			name = fmt.Sprintf("level %d", i)
		} else if names[name] {
			errs = append(errs, fmt.Errorf("config: duplicate cache level name %q", name))
		}
		names[name] = true
		if lv.LineBytes <= 0 || lv.SizeBytes <= 0 || lv.Ways <= 0 {
			errs = append(errs, fmt.Errorf("config: %s cache parameters must be positive", name))
			continue
		}
		if lv.LineBytes&(lv.LineBytes-1) != 0 {
			errs = append(errs, fmt.Errorf("config: %s line size must be a power of two", name))
		}
		// A cache line word packs the block number above two state
		// bits, so lines must be at least 4 bytes.
		if lv.LineBytes < 4 {
			errs = append(errs, fmt.Errorf("config: %s line size %d below 4 bytes", name, lv.LineBytes))
		}
		if lv.SizeBytes/(lv.Ways*lv.LineBytes) == 0 {
			errs = append(errs, fmt.Errorf("config: %s cache smaller than one set", name))
		}
		// The walk charges latency deltas on the way down, so the
		// cumulative latencies must be non-decreasing.
		if i > 0 && lv.LatencyCycles < prevLat {
			errs = append(errs, fmt.Errorf("config: %s latency %d below the previous level's %d",
				name, lv.LatencyCycles, prevLat))
		}
		prevLat = lv.LatencyCycles
	}
	if len(c.MemoryTiers) < 2 {
		errs = append(errs, fmt.Errorf("config: at least two memory tiers are required, got %d", len(c.MemoryTiers)))
	}
	tierNames := make(map[string]bool, len(c.MemoryTiers))
	for i, t := range c.MemoryTiers {
		if err := t.validate(i); err != nil {
			errs = append(errs, err)
			continue
		}
		if name := t.Name(); tierNames[name] {
			errs = append(errs, fmt.Errorf("config: duplicate memory tier name %q", name))
		} else {
			tierNames[name] = true
		}
	}
	seg := c.MemSys.SegmentBytes
	if seg <= 0 || seg&(seg-1) != 0 {
		errs = append(errs, fmt.Errorf("config: segment size must be a positive power of two, got %d", seg))
	}
	if c.MemSys.CacheLineBytes <= 0 || seg%max(c.MemSys.CacheLineBytes, 1) != 0 {
		errs = append(errs, errors.New("config: segment size must be a multiple of the cache-line size"))
	}
	if seg > 0 {
		// Placement works in whole segments, so every tier must hold an
		// integral number of them.
		for _, t := range c.MemoryTiers {
			if cap := t.CapacityBytes(); cap > 0 && cap%uint64(seg) != 0 {
				errs = append(errs, fmt.Errorf("config: %s capacity must be a multiple of the segment size", t.Name()))
			}
		}
	}
	if c.OS.PageBytes <= 0 || c.OS.PageBytes&(c.OS.PageBytes-1) != 0 {
		errs = append(errs, errors.New("config: page size must be a positive power of two"))
	}
	if c.OS.HugePageBytes%max(c.OS.PageBytes, 1) != 0 {
		errs = append(errs, errors.New("config: huge-page size must be a multiple of the page size"))
	}
	return errors.Join(errs...)
}
