// Package memtier turns the simulator's memory backend into an ordered
// stack of first-class tiers. Each tier wraps a device model — the
// existing cycle-accurate DRAM model, a byte-addressable NVM with
// asymmetric read/write timing and write-endurance accounting, or a
// CXL-attached far-memory expander with link latency/bandwidth and
// queuing — behind one Device interface that the OS model and placement
// policies schedule against. Devices account their own activity and
// energy so per-tier statistics survive any stack shape.
package memtier

import (
	"fmt"

	"chameleon/internal/config"
	"chameleon/internal/dram"
	"chameleon/internal/stats"
)

// EnergyReport re-exports the shared per-device energy breakdown.
type EnergyReport = dram.EnergyReport

// Device is one memory device in the tier stack. All times are in CPU
// cycles and all addresses are device-local (the caller subtracts the
// tier base). Implementations must keep Access and Stream free of heap
// allocations — they sit on the simulator's per-reference hot path.
type Device interface {
	Name() string
	Capacity() uint64
	// Access performs one transfer and returns its completion cycle.
	Access(now uint64, local uint64, write bool, bytes int) uint64
	// Stream transfers a contiguous region as line-sized accesses
	// (segment swaps and cache fills), returning the last completion.
	Stream(now uint64, local uint64, write bool, bytes, lineBytes int) uint64
	// PeakBandwidth returns the device's aggregate peak bandwidth in
	// bytes per second.
	PeakBandwidth() float64
	// BusyFraction returns the fraction of the elapsed time the
	// device's data path was transferring.
	BusyFraction(elapsedCycles uint64) float64
	// QueueDelay returns how far beyond now the device's data path is
	// already reserved — the backpressure signal migration engines use.
	QueueDelay(now uint64) uint64
	// Snapshot flattens the device counters into the unified metric
	// shape; ResetStats clears them (end of warm-up).
	Snapshot() stats.Snapshot
	ResetStats()
	// Energy computes the device's energy over the elapsed window from
	// its accumulated counters and the tier's power profile.
	Energy(cfg config.PowerConfig, elapsedCycles uint64) EnergyReport
}

// Tier is one level of the memory stack: a built device plus the
// configuration and resolved power profile it was built from.
type Tier struct {
	Cfg   config.MemTierConfig
	Kind  string // config.TierDRAM, TierNVM or TierCXL
	Index int    // position in the stack (0 = nearest)
	Dev   Device
	Power config.PowerConfig
}

// Name returns the tier's device name.
func (t *Tier) Name() string { return t.Dev.Name() }

// Capacity returns the tier's capacity in bytes.
func (t *Tier) Capacity() uint64 { return t.Dev.Capacity() }

// Energy reports the tier's energy over the elapsed window using its
// resolved power profile.
func (t *Tier) Energy(elapsedCycles uint64) EnergyReport {
	return t.Dev.Energy(t.Power, elapsedCycles)
}

// Build constructs the device for one tier configuration. idx is the
// tier's position in the stack (it selects the default power profile
// for DRAM tiers).
func Build(tc config.MemTierConfig, idx int, cpuHz float64) (*Tier, error) {
	kind := tc.ResolvedKind()
	t := &Tier{Cfg: tc.Clone(), Kind: kind, Index: idx, Power: config.TierPowerFor(tc, idx)}
	var err error
	switch kind {
	case config.TierDRAM:
		t.Dev, err = dram.New(*tc.DRAM, cpuHz)
	case config.TierNVM:
		t.Dev, err = NewNVM(*tc.NVM, cpuHz)
	case config.TierCXL:
		t.Dev, err = NewCXL(*tc.CXL, cpuHz)
	default:
		err = fmt.Errorf("memtier: tier %d has unknown kind %q", idx, tc.Kind)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// BuildStack constructs every tier of a memory configuration in order.
func BuildStack(tcs []config.MemTierConfig, cpuHz float64) ([]*Tier, error) {
	tiers := make([]*Tier, len(tcs))
	for i, tc := range tcs {
		t, err := Build(tc, i, cpuHz)
		if err != nil {
			return nil, fmt.Errorf("memtier: tier %d (%s): %w", i, tc.Name(), err)
		}
		tiers[i] = t
	}
	return tiers, nil
}
