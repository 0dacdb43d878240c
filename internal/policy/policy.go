// Package policy implements the heterogeneous memory-system designs the
// paper evaluates: flat DDR baselines, a latency-optimised DRAM cache
// (Alloy), hardware-managed Part-of-Memory (PoM, Sim et al. [25]), a
// CAMEO-style fine-grain variant, Polymorphic Memory (Chung patent
// [51]) and the paper's contributions, Chameleon and Chameleon-Opt.
//
// A Controller services the LLC-miss stream (64 B demand reads and
// writebacks addressed by OS-visible physical address) and receives the
// ISA-Alloc / ISA-Free notifications issued by the OS model. All times
// are CPU cycles.
package policy

import (
	"chameleon/internal/addr"
	"chameleon/internal/stats"
)

// Mem is the memory device abstraction the controllers drive.
// *dram.Device and the memtier NVM/CXL devices implement it; tests
// substitute fixed-latency fakes.
type Mem interface {
	// Access performs one transfer and returns its completion cycle.
	Access(now uint64, local uint64, write bool, bytes int) uint64
	// Stream performs a bulk transfer as line-sized accesses.
	Stream(now uint64, local uint64, write bool, bytes, lineBytes int) uint64
}

// TierMem is one level of the memory stack as seen by a controller:
// the device plus the identity a placement policy keys decisions on
// (an NVM tier's kind drives endurance-aware write throttling).
type TierMem struct {
	Name          string
	Kind          string // config.TierDRAM / TierNVM / TierCXL
	CapacityBytes uint64
	Mem           Mem
}

// TierAccounting is implemented by controllers that track per-tier
// demand-access counts (index 0 = nearest tier).
type TierAccounting interface {
	TierAccesses() []uint64
}

// AccessResult describes one serviced demand access.
type AccessResult struct {
	Done    uint64 // cycle at which the demanded data is available
	FastHit bool   // serviced by stacked DRAM
}

// Stats aggregates controller activity.
type Stats struct {
	Accesses uint64 // demand accesses (reads + writes)
	FastHits uint64 // accesses serviced by the stacked DRAM

	Swaps          uint64 // segment swaps (incl. dirty cache evict+fill, per the paper)
	SwapBytes      uint64
	Fills          uint64 // clean cache-mode segment fills
	Writebacks     uint64 // dirty segment writebacks
	ProactiveMoves uint64 // one-way segment moves triggered by ISA-Alloc/Free

	ISAAllocs       uint64
	ISAFrees        uint64
	ClearedSegments uint64 // security clears on cache<->PoM transitions

	SRTHits   uint64
	SRTMisses uint64

	// ThrottledDemotions counts demotions a tiering policy skipped to
	// protect a write-endurance-limited (NVM) tier from hot writers.
	ThrottledDemotions uint64

	LatencySum uint64 // sum over accesses of (Done - now)
}

// HitRate returns the stacked-DRAM hit rate.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.FastHits) / float64(s.Accesses)
}

// AMAT returns the average memory (LLC-miss) access latency in cycles.
func (s Stats) AMAT() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Accesses)
}

// Snapshot flattens the stats into the unified metric shape.
func (s Stats) Snapshot() stats.Snapshot {
	return stats.Snapshot{
		"accesses":            float64(s.Accesses),
		"fast_hits":           float64(s.FastHits),
		"hit_rate":            s.HitRate(),
		"amat_cycles":         s.AMAT(),
		"swaps":               float64(s.Swaps),
		"swap_bytes":          float64(s.SwapBytes),
		"fills":               float64(s.Fills),
		"writebacks":          float64(s.Writebacks),
		"proactive_moves":     float64(s.ProactiveMoves),
		"isa_allocs":          float64(s.ISAAllocs),
		"isa_frees":           float64(s.ISAFrees),
		"cleared_segments":    float64(s.ClearedSegments),
		"srt_hits":            float64(s.SRTHits),
		"srt_misses":          float64(s.SRTMisses),
		"throttled_demotions": float64(s.ThrottledDemotions),
		"latency_sum":         float64(s.LatencySum),
	}
}

// Controller is a heterogeneous memory-system design.
type Controller interface {
	// Name identifies the design (e.g. "pom", "chameleon-opt").
	Name() string
	// Access services one 64 B demand access to OS-visible physical
	// address p, beginning no earlier than now.
	Access(now uint64, p addr.Phys, write bool) AccessResult
	// ISAAlloc notifies the hardware that the OS allocated the segment.
	ISAAlloc(now uint64, seg addr.Seg)
	// ISAFree notifies the hardware that the OS freed the segment.
	ISAFree(now uint64, seg addr.Seg)
	// OSVisibleBytes is the memory capacity exposed to the OS.
	OSVisibleBytes() uint64
	// Stats returns accumulated statistics.
	Stats() Stats
	// ResetStats clears statistics (e.g. after warm-up).
	ResetStats()
}

// ModeDistribution is implemented by controllers with per-group modes
// (Chameleon designs); it reports the fraction of segment groups
// currently operating in cache mode.
type ModeDistribution interface {
	CacheModeFraction() float64
}
