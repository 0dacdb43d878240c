package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"chameleon/internal/addr"
	"chameleon/internal/config"
)

// BuildContext carries everything a registered design needs to
// construct its Controller: the machine configuration and the memory
// tier stack the simulator already built. For flat DDR baselines
// (Descriptor.RequiresBaseline) the simulator sizes the second tier's
// device to BaselineBytes before calling Build.
type BuildContext struct {
	Config config.Config
	// Tiers is the ordered memory stack (nearest first). Devices are
	// *dram.Device / memtier devices in the simulator, fakes in tests.
	Tiers []TierMem
	// BaselineBytes is the OS-visible capacity of a flat baseline
	// (Options.BaselineBytes); zero for every other design.
	BaselineBytes uint64
}

// NewSpace builds the two-device address space at the given remapping
// granularity — the common first step of every SRRT-based design.
func (bc BuildContext) NewSpace(segBytes uint64) (*addr.Space, error) {
	fast, slow := bc.Config.TierCapacity(0), bc.Config.TierCapacity(1)
	if len(bc.Tiers) >= 2 {
		fast, slow = bc.Tiers[0].CapacityBytes, bc.Tiers[1].CapacityBytes
	}
	return addr.NewSpace(fast, slow, segBytes)
}

// Descriptor describes one memory-system design to the rest of the
// system. Registering a descriptor is all it takes for a design to be
// constructible by the simulator, selectable in both CLIs, accepted by
// the server API, and included in experiment sweeps.
type Descriptor struct {
	// Build constructs the design's controller.
	Build func(bc BuildContext) (Controller, error)
	// NeedsISA marks designs that consume the OS's ISA-Alloc/ISA-Free
	// notifications (the Chameleon co-designs); the OS model issues
	// them at SegGranularity.
	NeedsISA bool
	// SegGranularity returns the ISA-notification granularity in bytes.
	// Nil defaults to Config.MemSys.SegmentBytes. Ignored unless
	// NeedsISA is set.
	SegGranularity func(cfg config.Config) uint64
	// RequiresBaseline marks flat DDR baselines: Options.BaselineBytes
	// must be set, and the simulator sizes the off-chip device to it.
	RequiresBaseline bool
	// OSManaged marks designs with no hardware indirection that expose
	// both memories to the OS as NUMA nodes: the OS defaults to
	// first-touch allocation and may attach AutoNUMA migration.
	OSManaged bool
	// MinTiers is the number of memory tiers the design needs. Zero
	// means the classic two; designs that place across deeper stacks
	// (hot/warm/cold) declare 3 or more, and the simulator rejects
	// configurations with fewer tiers than the design exploits.
	MinTiers int
}

// RequiredTiers returns the effective tier floor (MinTiers, defaulting
// to 2).
func (d Descriptor) RequiredTiers() int {
	if d.MinTiers < 2 {
		return 2
	}
	return d.MinTiers
}

// ISASegBytes returns the granularity at which the OS should issue
// ISA-Alloc/ISA-Free notifications for this design under cfg, or 0
// when the design does not consume them.
func (d Descriptor) ISASegBytes(cfg config.Config) uint64 {
	if !d.NeedsISA {
		return 0
	}
	if d.SegGranularity != nil {
		return d.SegGranularity(cfg)
	}
	return uint64(cfg.MemSys.SegmentBytes)
}

var registry = struct {
	sync.RWMutex
	m map[string]Descriptor
}{m: map[string]Descriptor{}}

// Register makes a design constructible under the given name. Each
// design file self-registers from init(), so importing the policy
// package is enough to populate the full catalogue. Register panics on
// an empty name, a nil Build, or a duplicate name — all programming
// errors, caught at process start.
func Register(name string, d Descriptor) {
	if name == "" {
		panic("policy: Register with empty name")
	}
	if d.Build == nil {
		panic(fmt.Sprintf("policy: Register(%q) with nil Build", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("policy: duplicate Register(%q)", name))
	}
	registry.m[name] = d
}

// Lookup resolves a registered design by name. An unknown name returns
// an error listing the valid set.
func Lookup(name string) (Descriptor, error) {
	registry.RLock()
	defer registry.RUnlock()
	d, ok := registry.m[name]
	if !ok {
		return Descriptor{}, fmt.Errorf("policy: unknown design %q (registered: %s)",
			name, strings.Join(namesLocked(), ", "))
	}
	return d, nil
}

// Names returns every registered design name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

// namesLocked lists the registered names; callers hold the registry
// lock.
func namesLocked() []string {
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
