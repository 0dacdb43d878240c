package policy

import (
	"fmt"

	"chameleon/internal/addr"
	"chameleon/internal/config"
)

func init() {
	Register("flat", Descriptor{
		RequiresBaseline: true,
		Build: func(bc BuildContext) (Controller, error) {
			name := fmt.Sprintf("flat-%dGB", bc.BaselineBytes/config.GB*bc.Config.Scale)
			return NewFlat(name, nil, bc.Tiers[1].Mem, 0, bc.BaselineBytes), nil
		},
	})
	Register("numa-flat", Descriptor{
		OSManaged: true,
		Build: func(bc BuildContext) (Controller, error) {
			if len(bc.Tiers) > 2 {
				// The whole stack is OS-visible: every tier becomes a
				// NUMA node, ordered near to far.
				return NewFlatTiers("numa-flat", bc.Tiers), nil
			}
			return NewFlat("numa-flat", bc.Tiers[0].Mem, bc.Tiers[1].Mem,
				bc.Config.TierCapacity(0), bc.Config.TotalCapacity()), nil
		},
	})
}

// Flat is a non-remapping memory system over an ordered tier stack.
// With only an off-chip device it models the paper's
// baseline_20GB/24GB DDR3 systems; with two or more devices it models
// the OS-managed NUMA-flat system used by the first-touch and AutoNUMA
// studies (addresses route to the tier whose OS-visible range they fall
// in, with no hardware indirection).
type Flat struct {
	name    string
	mems    []Mem
	bases   []uint64 // tier i owns OS addresses [bases[i], bases[i+1])
	fastIdx int      // tier counted as a stacked-DRAM hit (-1 when none)
	total   uint64   // OS-visible capacity
	stats   Stats
	tierAcc []uint64 // demand accesses per tier
}

// NewFlat builds a flat memory system over the classic fast/slow pair.
// fast may be nil for a DDR3-only baseline; total is the OS-visible
// capacity in bytes.
func NewFlat(name string, fast, slow Mem, fastBytes, total uint64) *Flat {
	f := &Flat{name: name, fastIdx: -1, total: total}
	if fast != nil {
		f.mems = append(f.mems, fast)
		f.bases = append(f.bases, 0)
		f.fastIdx = 0
	}
	f.mems = append(f.mems, slow)
	f.bases = append(f.bases, fastBytes, total)
	f.tierAcc = make([]uint64, len(f.mems))
	return f
}

// NewFlatTiers builds a flat memory system spanning an arbitrary tier
// stack; the whole capacity is OS-visible and tier 0 counts as the
// stacked node.
func NewFlatTiers(name string, tiers []TierMem) *Flat {
	f := &Flat{name: name, fastIdx: 0}
	f.bases = append(f.bases, 0)
	for _, t := range tiers {
		f.mems = append(f.mems, t.Mem)
		f.total += t.CapacityBytes
		f.bases = append(f.bases, f.total)
	}
	f.tierAcc = make([]uint64, len(f.mems))
	return f
}

// Name implements Controller.
func (f *Flat) Name() string { return f.name }

// OSVisibleBytes implements Controller.
func (f *Flat) OSVisibleBytes() uint64 { return f.total }

// Stats implements Controller.
func (f *Flat) Stats() Stats { return f.stats }

// ResetStats implements Controller.
func (f *Flat) ResetStats() {
	f.stats = Stats{}
	clear(f.tierAcc)
}

// TierAccesses implements TierAccounting.
func (f *Flat) TierAccesses() []uint64 { return f.tierAcc }

// Access implements Controller.
func (f *Flat) Access(now uint64, p addr.Phys, write bool) AccessResult {
	f.stats.Accesses++
	i := len(f.mems) - 1
	for j := 1; j < len(f.mems); j++ {
		if uint64(p) < f.bases[j] {
			i = j - 1
			break
		}
	}
	done := f.mems[i].Access(now, uint64(p)-f.bases[i], write, 64)
	f.tierAcc[i]++
	fastHit := i == f.fastIdx
	if fastHit {
		f.stats.FastHits++
	}
	f.stats.LatencySum += done - now
	return AccessResult{Done: done, FastHit: fastHit}
}

// ISAAlloc implements Controller; flat systems ignore the notification.
func (f *Flat) ISAAlloc(now uint64, seg addr.Seg) { f.stats.ISAAllocs++ }

// ISAFree implements Controller; flat systems ignore the notification.
func (f *Flat) ISAFree(now uint64, seg addr.Seg) { f.stats.ISAFrees++ }
