package policy

import (
	"fmt"

	"chameleon/internal/addr"
)

func init() {
	Register("alloy", Descriptor{
		Build: func(bc BuildContext) (Controller, error) {
			return NewAlloy(bc.Tiers[0].Mem, bc.Tiers[1].Mem,
				bc.Config.TierCapacity(0), bc.Config.TierCapacity(1))
		},
	})
}

// Alloy models the latency-optimised DRAM cache of Qureshi & Loh
// (MICRO 2012): the stacked DRAM is a direct-mapped cache of 64 B lines
// whose tag and data (TAD, 72 B) stream out in a single burst, with a
// MAP-I-style memory-access predictor that launches the off-chip access
// in parallel with the cache probe on predicted misses. Because the
// stacked DRAM holds copies, the OS-visible capacity is only the
// off-chip capacity — the source of Alloy's page-fault penalty on
// high-footprint workloads in the paper.
type Alloy struct {
	fast Mem
	slow Mem

	sets     uint64
	setShift uint // log2(sets)
	tags     []uint8
	meta     []uint8 // bit0 valid, bit1 dirty

	pred      []uint8 // 2-bit saturating miss predictors, indexed by page hash
	slowBytes uint64

	stats       Stats
	probeBytes  int
	fastForward bool

	predHits uint64 // correct predictions
	predMiss uint64 // mispredictions
}

const (
	alloyValid = 1 << 0
	alloyDirty = 1 << 1
)

// NewAlloy builds the Alloy cache controller. fastBytes and slowBytes
// are the device capacities; fastBytes/64 must be a power of two.
func NewAlloy(fast, slow Mem, fastBytes, slowBytes uint64) (*Alloy, error) {
	sets := fastBytes / 64
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("alloy: stacked capacity must be a power-of-two multiple of 64 B, got %d", fastBytes)
	}
	var shift uint
	for s := sets; s > 1; s >>= 1 {
		shift++
	}
	maxTag := (slowBytes/64 + sets - 1) / sets
	if maxTag > 255 {
		return nil, fmt.Errorf("alloy: capacity ratio too large for 8-bit tags (%d)", maxTag)
	}
	return &Alloy{
		fast:       fast,
		slow:       slow,
		sets:       sets,
		setShift:   shift,
		tags:       make([]uint8, sets),
		meta:       make([]uint8, sets),
		pred:       make([]uint8, 1<<16),
		slowBytes:  slowBytes,
		probeBytes: 72,
	}, nil
}

// Name implements Controller.
func (a *Alloy) Name() string { return "alloy" }

// OSVisibleBytes implements Controller.
func (a *Alloy) OSVisibleBytes() uint64 { return a.slowBytes }

// Stats implements Controller.
func (a *Alloy) Stats() Stats { return a.stats }

// ResetStats implements Controller.
func (a *Alloy) ResetStats() {
	a.stats = Stats{}
	a.predHits, a.predMiss = 0, 0
}

// SetFastForward toggles warm-up mode: tag/predictor state is still
// maintained but no simulated DRAM bandwidth is consumed.
func (a *Alloy) SetFastForward(v bool) { a.fastForward = v }

// PredictorAccuracy returns the fraction of correct hit/miss
// predictions.
func (a *Alloy) PredictorAccuracy() float64 {
	t := a.predHits + a.predMiss
	if t == 0 {
		return 1
	}
	return float64(a.predHits) / float64(t)
}

func (a *Alloy) predIndex(p addr.Phys) uint64 {
	page := uint64(p) >> 12
	page ^= page >> 16
	return page & uint64(len(a.pred)-1)
}

// Access implements Controller.
func (a *Alloy) Access(now uint64, p addr.Phys, write bool) AccessResult {
	a.stats.Accesses++
	line := uint64(p) >> 6
	set := line & (a.sets - 1)
	tag := uint8(line >> a.setShift)

	pi := a.predIndex(p)
	predictMiss := a.pred[pi] >= 2

	hit := a.meta[set]&alloyValid != 0 && a.tags[set] == tag

	// The TAD probe always happens (it carries the data on a hit). On a
	// miss the subsequent TAD fill streams into the still-open row, so
	// probe+fill are modelled as one double-length burst.
	probeBytes := a.probeBytes
	if !hit {
		probeBytes *= 2
	}
	probeDone := now + 60
	if !a.fastForward {
		probeDone = a.fast.Access(now, set<<6, write || !hit, probeBytes)
	}

	var done uint64
	if hit {
		a.stats.FastHits++
		done = probeDone
		if write {
			a.meta[set] |= alloyDirty
		}
		if predictMiss {
			a.predMiss++
		} else {
			a.predHits++
		}
		if a.pred[pi] > 0 {
			a.pred[pi]--
		}
	} else {
		start := probeDone
		if predictMiss {
			start = now // launched in parallel with the probe
			a.predHits++
		} else {
			a.predMiss++
		}
		if a.pred[pi] < 3 {
			a.pred[pi]++
		}
		if a.fastForward {
			done = start + 200
		} else {
			done = a.slow.Access(start, uint64(p), false, 64)
		}

		// Writeback the dirty victim, then fill the TAD. Both are off
		// the demand critical path; their bandwidth is charged at the
		// request time (they sit in the controller's write buffers and
		// drain opportunistically).
		if a.meta[set]&(alloyValid|alloyDirty) == alloyValid|alloyDirty {
			if !a.fastForward {
				victim := (uint64(a.tags[set])<<a.setShift | set) << 6
				a.slow.Access(now, victim, true, 64)
			}
			a.stats.Writebacks++
		}
		a.stats.Fills++
		a.tags[set] = tag
		a.meta[set] = alloyValid
		if write {
			a.meta[set] |= alloyDirty
		}
	}
	a.stats.LatencySum += done - now
	return AccessResult{Done: done, FastHit: hit}
}

// ISAAlloc implements Controller; Alloy ignores OS allocation hints.
func (a *Alloy) ISAAlloc(now uint64, seg addr.Seg) { a.stats.ISAAllocs++ }

// ISAFree implements Controller; Alloy ignores OS allocation hints.
func (a *Alloy) ISAFree(now uint64, seg addr.Seg) { a.stats.ISAFrees++ }
