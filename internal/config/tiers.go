package config

import (
	"errors"
	"fmt"
)

// Memory tier kinds. A tier's Kind selects which device model backs it
// and which of the MemTierConfig device sections must be populated.
const (
	TierDRAM = "dram" // bank/rank/channel DRAM model (internal/dram)
	TierNVM  = "nvm"  // byte-addressable NVM with asymmetric read/write timing
	TierCXL  = "cxl"  // CXL-attached far memory behind a serial link
)

// PowerConfig holds per-operation energies (picojoules) and background
// power (milliwatts) for one memory device. It lives in the tier
// configuration so every tier — DRAM, NVM or CXL — carries its own
// energy profile instead of the simulator hardcoding two DRAM defaults.
type PowerConfig struct {
	ActPrePJ       float64 // one activate+precharge pair (or per-access overhead)
	ReadPJPerByte  float64
	WritePJPerByte float64
	RefreshPJ      float64 // one rank refresh (0 for refresh-free media)
	BackgroundMW   float64 // standby power for the whole device
}

// DefaultStackedPower approximates an HBM-class stack: lower per-bit
// I/O energy (short TSV paths), higher background power (more banks).
func DefaultStackedPower() PowerConfig {
	return PowerConfig{
		ActPrePJ:       900,
		ReadPJPerByte:  4,
		WritePJPerByte: 4.5,
		RefreshPJ:      28_000,
		BackgroundMW:   350,
	}
}

// DefaultOffChipPower approximates a DDR3 DIMM: higher per-bit I/O
// energy (board traces), lower background power.
func DefaultOffChipPower() PowerConfig {
	return PowerConfig{
		ActPrePJ:       1_600,
		ReadPJPerByte:  12,
		WritePJPerByte: 13,
		RefreshPJ:      120_000,
		BackgroundMW:   180,
	}
}

// DefaultNVMPower approximates a PCM-class part: reads moderately more
// expensive than DRAM, writes an order of magnitude more, no refresh,
// near-zero standby (non-volatile cells idle for free).
func DefaultNVMPower() PowerConfig {
	return PowerConfig{
		ActPrePJ:       2_000,
		ReadPJPerByte:  17,
		WritePJPerByte: 90,
		RefreshPJ:      0,
		BackgroundMW:   50,
	}
}

// DefaultCXLPower approximates a CXL memory expander: DRAM-like media
// energy plus an always-on link PHY dominating background power.
func DefaultCXLPower() PowerConfig {
	return PowerConfig{
		ActPrePJ:       1_600,
		ReadPJPerByte:  14,
		WritePJPerByte: 15,
		RefreshPJ:      120_000,
		BackgroundMW:   450,
	}
}

// NVMConfig describes a byte-addressable non-volatile memory tier. The
// timing model follows the NUMA-based hybrid-memory emulation literature
// (arXiv 1808.00064): a fixed media latency per access, asymmetric
// between reads and writes, plus separate sustained read and write
// bandwidth ceilings well below DRAM.
type NVMConfig struct {
	Name          string
	CapacityBytes uint64
	// Banks is the number of independently schedulable banks (defaults
	// to 16 when zero).
	Banks int
	// ReadLatencyNanos / WriteLatencyNanos are the media access
	// latencies; writes are several times slower than reads.
	ReadLatencyNanos  float64
	WriteLatencyNanos float64
	// ReadBandwidth / WriteBandwidth are sustained ceilings in
	// bytes/second; the write path saturates far earlier.
	ReadBandwidth  float64
	WriteBandwidth float64
	// WearBlockBytes is the write-endurance accounting granularity
	// (defaults to 4 KB when zero; must be a power of two).
	WearBlockBytes int
	// EnduranceWrites is the per-block write budget; blocks past it are
	// reported as worn. Zero defaults to 100M (a PCM-class cell budget).
	EnduranceWrites uint64
}

// DefaultNVM returns a plausible PCM/Optane-class tier of the given
// capacity: ~300 ns reads, ~1 µs writes, 8/3 GB/s read/write ceilings.
func DefaultNVM(capacityBytes uint64) NVMConfig {
	return NVMConfig{
		Name:              "nvm",
		CapacityBytes:     capacityBytes,
		Banks:             16,
		ReadLatencyNanos:  300,
		WriteLatencyNanos: 1000,
		ReadBandwidth:     8 * GB,
		WriteBandwidth:    3 * GB,
		WearBlockBytes:    4 * KB,
		EnduranceWrites:   100_000_000,
	}
}

// CXLConfig describes a CXL-attached far-memory tier: DRAM-class media
// reached across a serial link that adds latency and bottlenecks
// bandwidth. Parameters follow the METICULOUS CXL-emulation study
// (arXiv 2309.06565): ~200 ns of added link round-trip and ~32 GB/s of
// link bandwidth per direction.
type CXLConfig struct {
	Name          string
	CapacityBytes uint64
	// LinkLatencyNanos is the added round-trip port-to-port latency.
	LinkLatencyNanos float64
	// LinkBandwidth is the per-direction link ceiling in bytes/second;
	// transfers queue behind it in arrival order.
	LinkBandwidth float64
	// MediaLatencyNanos is the device-side media access time.
	MediaLatencyNanos float64
}

// DefaultCXL returns a plausible x8 CXL 2.0 expander of the given
// capacity.
func DefaultCXL(capacityBytes uint64) CXLConfig {
	return CXLConfig{
		Name:              "cxl",
		CapacityBytes:     capacityBytes,
		LinkLatencyNanos:  200,
		LinkBandwidth:     32 * GB,
		MediaLatencyNanos: 80,
	}
}

// MemTierConfig describes one tier of the memory stack. Exactly one of
// the device sections (DRAM, NVM, CXL) must be populated, matching Kind
// when Kind is set (an empty Kind is inferred from the populated
// section). Power overrides the tier's energy profile; nil falls back
// to the kind's default (stacked/off-chip for the first/subsequent DRAM
// tiers).
type MemTierConfig struct {
	Kind  string       `json:",omitempty"`
	DRAM  *DRAMConfig  `json:",omitempty"`
	NVM   *NVMConfig   `json:",omitempty"`
	CXL   *CXLConfig   `json:",omitempty"`
	Power *PowerConfig `json:",omitempty"`
}

// ResolvedKind returns the tier's kind, inferring it from the populated
// device section when Kind is empty. Ambiguous or empty tiers resolve
// to "" (rejected by Validate).
func (t MemTierConfig) ResolvedKind() string {
	if t.Kind != "" {
		return t.Kind
	}
	switch {
	case t.DRAM != nil && t.NVM == nil && t.CXL == nil:
		return TierDRAM
	case t.NVM != nil && t.DRAM == nil && t.CXL == nil:
		return TierNVM
	case t.CXL != nil && t.DRAM == nil && t.NVM == nil:
		return TierCXL
	}
	return ""
}

// Name returns the tier's device name.
func (t MemTierConfig) Name() string {
	switch {
	case t.DRAM != nil:
		return t.DRAM.Name
	case t.NVM != nil:
		return t.NVM.Name
	case t.CXL != nil:
		return t.CXL.Name
	}
	return ""
}

// CapacityBytes returns the tier's capacity.
func (t MemTierConfig) CapacityBytes() uint64 {
	switch {
	case t.DRAM != nil:
		return t.DRAM.CapacityBytes
	case t.NVM != nil:
		return t.NVM.CapacityBytes
	case t.CXL != nil:
		return t.CXL.CapacityBytes
	}
	return 0
}

// SetCapacity rewrites the tier's capacity in place (used by the
// simulator to size flat-baseline devices).
func (t *MemTierConfig) SetCapacity(bytes uint64) {
	switch {
	case t.DRAM != nil:
		t.DRAM.CapacityBytes = bytes
	case t.NVM != nil:
		t.NVM.CapacityBytes = bytes
	case t.CXL != nil:
		t.CXL.CapacityBytes = bytes
	}
}

// Clone deep-copies the tier so callers can mutate device parameters
// without aliasing the source configuration.
func (t MemTierConfig) Clone() MemTierConfig {
	if t.DRAM != nil {
		d := *t.DRAM
		t.DRAM = &d
	}
	if t.NVM != nil {
		n := *t.NVM
		t.NVM = &n
	}
	if t.CXL != nil {
		c := *t.CXL
		t.CXL = &c
	}
	if t.Power != nil {
		p := *t.Power
		t.Power = &p
	}
	return t
}

// CloneTiers deep-copies a tier stack.
func CloneTiers(tiers []MemTierConfig) []MemTierConfig {
	out := make([]MemTierConfig, len(tiers))
	for i, t := range tiers {
		out[i] = t.Clone()
	}
	return out
}

// TierPowerFor resolves the power profile of tier t at stack position
// idx: the configured override, else the kind's default. The first DRAM
// tier defaults to the stacked (HBM) profile, deeper DRAM tiers to the
// off-chip (DDR) profile — preserving the pre-tier simulator's energy
// accounting for two-tier configurations that never mention power.
func TierPowerFor(t MemTierConfig, idx int) PowerConfig {
	if t.Power != nil {
		return *t.Power
	}
	switch t.ResolvedKind() {
	case TierNVM:
		return DefaultNVMPower()
	case TierCXL:
		return DefaultCXLPower()
	default:
		if idx == 0 {
			return DefaultStackedPower()
		}
		return DefaultOffChipPower()
	}
}

// validate reports the tier's configuration errors; idx is used only in
// messages.
func (t MemTierConfig) validate(idx int) error {
	var errs []error
	sections := 0
	for _, set := range []bool{t.DRAM != nil, t.NVM != nil, t.CXL != nil} {
		if set {
			sections++
		}
	}
	if sections != 1 {
		return fmt.Errorf("config: memory tier %d must have exactly one device section (DRAM, NVM or CXL), got %d", idx, sections)
	}
	kind := t.ResolvedKind()
	switch kind {
	case TierDRAM:
		if t.DRAM == nil {
			return fmt.Errorf("config: memory tier %d: kind %q but no DRAM section", idx, t.Kind)
		}
		d := t.DRAM
		if d.CapacityBytes == 0 {
			errs = append(errs, fmt.Errorf("config: %s DRAM capacity must be positive", d.Name))
		}
		if d.Channels <= 0 || d.BanksPerRank <= 0 || d.RanksPerChan <= 0 {
			errs = append(errs, fmt.Errorf("config: %s DRAM geometry must be positive", d.Name))
		}
		if d.BusFreqHz <= 0 || d.BusWidthBits <= 0 {
			errs = append(errs, fmt.Errorf("config: %s DRAM bus parameters must be positive", d.Name))
		}
	case TierNVM:
		if t.NVM == nil {
			return fmt.Errorf("config: memory tier %d: kind %q but no NVM section", idx, t.Kind)
		}
		n := t.NVM
		if n.CapacityBytes == 0 {
			errs = append(errs, fmt.Errorf("config: %s NVM capacity must be positive", n.Name))
		}
		if n.ReadLatencyNanos <= 0 || n.WriteLatencyNanos <= 0 {
			errs = append(errs, fmt.Errorf("config: %s NVM latencies must be positive", n.Name))
		}
		if n.ReadBandwidth <= 0 || n.WriteBandwidth <= 0 {
			errs = append(errs, fmt.Errorf("config: %s NVM bandwidths must be positive", n.Name))
		}
		if n.Banks < 0 {
			errs = append(errs, fmt.Errorf("config: %s NVM bank count must be non-negative", n.Name))
		}
		if wb := n.WearBlockBytes; wb < 0 || (wb > 0 && wb&(wb-1) != 0) {
			errs = append(errs, fmt.Errorf("config: %s NVM wear block must be a power of two", n.Name))
		}
	case TierCXL:
		if t.CXL == nil {
			return fmt.Errorf("config: memory tier %d: kind %q but no CXL section", idx, t.Kind)
		}
		x := t.CXL
		if x.CapacityBytes == 0 {
			errs = append(errs, fmt.Errorf("config: %s CXL capacity must be positive", x.Name))
		}
		if x.LinkLatencyNanos <= 0 || x.LinkBandwidth <= 0 {
			errs = append(errs, fmt.Errorf("config: %s CXL link parameters must be positive", x.Name))
		}
		if x.MediaLatencyNanos < 0 {
			errs = append(errs, fmt.Errorf("config: %s CXL media latency must be non-negative", x.Name))
		}
	default:
		return fmt.Errorf("config: memory tier %d has unknown kind %q (dram, nvm or cxl)", idx, t.Kind)
	}
	if t.Name() == "" {
		errs = append(errs, fmt.Errorf("config: memory tier %d must be named", idx))
	}
	return errors.Join(errs...)
}

// WithNVMTier returns a copy of c with a default byte-addressable NVM
// tier of the given capacity appended as the farthest (coldest) tier.
// It is the one-line route from a two-tier DRAM config to a stack a
// three-tier policy (hwc) can drive.
func (c Config) WithNVMTier(capacityBytes uint64) Config {
	tiers := CloneTiers(c.MemoryTiers)
	n := DefaultNVM(capacityBytes)
	tiers = append(tiers, MemTierConfig{NVM: &n})
	c.MemoryTiers = tiers
	return c
}

// WithCXLTier returns a copy of c with a default CXL-attached memory
// tier of the given capacity appended as the farthest tier.
func (c Config) WithCXLTier(capacityBytes uint64) Config {
	tiers := CloneTiers(c.MemoryTiers)
	x := DefaultCXL(capacityBytes)
	tiers = append(tiers, MemTierConfig{CXL: &x})
	c.MemoryTiers = tiers
	return c
}
