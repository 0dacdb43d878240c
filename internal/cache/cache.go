// Package cache implements a generic set-associative, write-back,
// write-allocate cache with LRU replacement. It is used to model the
// paper's three-level hierarchy (32 KB L1, 256 KB private L2, 12 MB
// shared L3) that filters core accesses into the LLC-miss stream seen
// by the heterogeneous memory system.
package cache

import (
	"fmt"

	"chameleon/internal/stats"
)

// Victim describes a line evicted by a fill.
type Victim struct {
	Addr  uint64 // base address of the evicted line
	Dirty bool
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Snapshot flattens the stats into the unified metric shape.
func (s Stats) Snapshot() stats.Snapshot {
	return stats.Snapshot{
		"accesses":   float64(s.Accesses),
		"hits":       float64(s.Hits),
		"misses":     float64(s.Misses),
		"writebacks": float64(s.Writebacks),
		"miss_rate":  s.MissRate(),
	}
}

// A set is ways packed line words kept in recency order, most recently
// used first. A word is block<<2 | dirty<<1 | valid, where block is the
// line's address shifted right by the line-size bits (at least 2, so
// the block fits in 62 bits). A hit moves its word to the front; a fill
// shifts the set down one slot, writes the new word in front and
// evicts whatever fell off the end. With no way to invalidate a line,
// invalid (zero) words only ever form the set's tail, so the last word
// is the first invalid slot while the set fills and the least recently
// used line once it is full: exactly the victim timestamp LRU picks.
const (
	validBit   = 1
	dirtyBit   = 2
	blockShift = 2
)

// Cache is a single cache level.
type Cache struct {
	name      string
	lineShift uint
	sets      uint64
	// setMask is sets-1 for a power-of-two set count (set masks), else 0 (set divides).
	setMask uint64
	ways    int
	lines   []uint64 // sets * ways packed line words, set-major, MRU first
	stats   Stats
}

// New builds a cache of sizeBytes organised as ways-associative sets of
// lineBytes lines. The set count is sizeBytes / (ways * lineBytes),
// rounded down; it need not be a power of two (Table I's 12 MB, 16-way
// L3 has 12288 sets). Lines must be at least 4 bytes so a block number
// fits in a line word.
func New(name string, sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache %s: parameters must be positive", name)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size must be a power of two", name)
	}
	if lineBytes < 1<<blockShift {
		return nil, fmt.Errorf("cache %s: line size %d below %d bytes", name, lineBytes, 1<<blockShift)
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets <= 0 {
		return nil, fmt.Errorf("cache %s: set count %d must be positive", name, sets)
	}
	var shift uint
	for l := lineBytes; l > 1; l >>= 1 {
		shift++
	}
	c := &Cache{
		name:      name,
		lineShift: shift,
		sets:      uint64(sets),
		ways:      ways,
		lines:     make([]uint64, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets) - 1
	}
	return c, nil
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without flushing contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Snapshot implements stats.Source (Name is the cache level's name).
func (c *Cache) Snapshot() stats.Snapshot { return c.stats.Snapshot() }

// set returns addr's set and the valid line word addr would occupy.
func (c *Cache) set(addr uint64) (set []uint64, key uint64) {
	blk := addr >> c.lineShift
	idx := blk & c.setMask
	if c.setMask == 0 {
		idx = blk % c.sets
	}
	base := int(idx) * c.ways
	return c.lines[base : base+c.ways], blk<<blockShift | validBit
}

// Access looks up addr; on a miss the line is filled (write-allocate)
// and the evicted victim, if any, is returned. The returned hit flag is
// false on misses. A write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim, hasVictim bool) {
	c.stats.Accesses++
	set, key := c.set(addr)
	var dirty uint64
	if write {
		dirty = dirtyBit
	}

	for i, w := range set {
		if w&^dirtyBit != key {
			continue
		}
		c.stats.Hits++
		if i > 0 || w|dirty != w {
			// A loop, not copy: the shift is a few words and copy's
			// memmove call costs more than it moves.
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = w | dirty
		}
		return true, Victim{}, false
	}
	c.stats.Misses++

	last := len(set) - 1
	if w := set[last]; w&validBit != 0 {
		victim = Victim{Addr: w >> blockShift << c.lineShift, Dirty: w&dirtyBit != 0}
		hasVictim = true
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	for i := last; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = key | dirty
	return false, victim, hasVictim
}
