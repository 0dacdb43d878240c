package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the timestamp-LRU cache the packed recency-ordered sets
// replaced, kept as a differential oracle: each line carries the tick
// of its last touch, a miss fills the first invalid way or else the way
// with the smallest tick.
type refCache struct {
	lineShift uint
	sets      uint64
	ways      int
	lines     []refLine
	tick      uint64
	stats     Stats
}

type refLine struct {
	tag   uint64
	lru   uint64
	valid bool
	dirty bool
}

func newRef(sizeBytes, ways, lineBytes int) *refCache {
	var shift uint
	for l := lineBytes; l > 1; l >>= 1 {
		shift++
	}
	sets := sizeBytes / (ways * lineBytes)
	return &refCache{lineShift: shift, sets: uint64(sets), ways: ways, lines: make([]refLine, sets*ways)}
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, victim Victim, hasVictim bool) {
	c.stats.Accesses++
	c.tick++
	tag := addr >> c.lineShift
	base := int(tag%c.sets) * c.ways
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			return true, Victim{}, false
		}
	}
	c.stats.Misses++
	slot := 0
	for i := range set {
		if !set[i].valid {
			slot = i
			break
		}
		if set[i].lru < set[slot].lru {
			slot = i
		}
	}
	if set[slot].valid {
		victim = Victim{Addr: set[slot].tag << c.lineShift, Dirty: set[slot].dirty}
		hasVictim = true
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	set[slot] = refLine{tag: tag, lru: c.tick, valid: true, dirty: write}
	return false, victim, hasVictim
}

// refWays and refSets span the differential geometries: direct-mapped
// to Table I's 16-way L3, power-of-two set counts, an odd count, and
// the L3's 12288 sets.
var (
	refWays  = []int{1, 2, 4, 8, 16}
	refSets  = []int{1, 2, 16, 64, 3, 12288}
	refLines = []int{4, 64}
)

// refOp is one access of a differential run. Addresses are built from
// a set selector and a small tag so every geometry sees hits, conflict
// misses and evictions, plus occasional arbitrary 64-bit addresses that
// exercise the top block bits.
type refOp struct {
	addr  uint64
	write bool
}

// refAddr maps a (set selector, tag) pair into geometry sets x ways.
// Selectors 0-3 pin the first, second, last and middle set so small
// inputs still collide; larger selectors spread over all sets.
func refAddr(sel, tag uint64, sets, ways, lineBytes int) uint64 {
	set := sel
	switch sel {
	case 2:
		set = uint64(sets - 1)
	case 3:
		set = uint64(sets / 2)
	}
	set %= uint64(sets)
	tag %= uint64(2*ways + 3)
	return (tag*uint64(sets) + set) * uint64(lineBytes)
}

// diffRun replays ops on a fresh Cache and refCache of one geometry and
// reports the first disagreement.
func diffRun(t *testing.T, sets, ways, lineBytes int, ops []refOp) {
	t.Helper()
	size := sets * ways * lineBytes
	c, err := New("d", size, ways, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(size, ways, lineBytes)
	for i, op := range ops {
		hit, v, hv := c.Access(op.addr, op.write)
		rhit, rv, rhv := ref.Access(op.addr, op.write)
		if hit != rhit || v != rv || hv != rhv {
			t.Fatalf("sets=%d ways=%d line=%d op %d (%#x write=%v): got (%v, %+v, %v), reference (%v, %+v, %v)",
				sets, ways, lineBytes, i, op.addr, op.write, hit, v, hv, rhit, rv, rhv)
		}
	}
	if c.Stats() != ref.stats {
		t.Fatalf("sets=%d ways=%d line=%d: stats %+v, reference %+v", sets, ways, lineBytes, c.Stats(), ref.stats)
	}
}

// TestCacheMatchesReference: on seeded random access streams the packed
// cache returns the same (hit, victim, hasVictim) on every access and
// the same final Stats as timestamp LRU, for every geometry.
func TestCacheMatchesReference(t *testing.T) {
	for _, sets := range refSets {
		for _, ways := range refWays {
			for _, line := range refLines {
				t.Run(fmt.Sprintf("sets%d/ways%d/line%d", sets, ways, line), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sets*131 + ways*7 + line)))
					ops := make([]refOp, 20_000)
					for i := range ops {
						addr := refAddr(uint64(rng.Intn(8)), uint64(rng.Intn(64)), sets, ways, line)
						if rng.Intn(50) == 0 {
							addr = rng.Uint64()
						}
						// Sub-line offsets must not matter.
						addr += uint64(rng.Intn(line))
						ops[i] = refOp{addr: addr, write: rng.Intn(3) == 0}
					}
					diffRun(t, sets, ways, line, ops)
				})
			}
		}
	}
}

// FuzzCacheAgainstReference drives both caches with a fuzzer-chosen
// geometry and access stream. The first byte picks ways, sets and line
// size; each following byte pair is one access: a control byte (bit 0
// write, bits 1-6 set selector) and a tag. When the control byte's top
// bit is set, the next 8 bytes give a raw address instead.
func FuzzCacheAgainstReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 0, 3, 0, 5})
	f.Add([]byte{0x3c, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0x5b, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 1, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := int(data[0])
		ways := refWays[g%len(refWays)]
		g /= len(refWays)
		sets := refSets[g%len(refSets)]
		g /= len(refSets)
		line := refLines[g%len(refLines)]
		var ops []refOp
		for p := 1; p+2 <= len(data); p += 2 {
			sel, tag := data[p], data[p+1]
			op := refOp{write: sel&1 != 0, addr: refAddr(uint64(sel>>1&0x3f), uint64(tag), sets, ways, line)}
			if sel&0x80 != 0 && p+10 <= len(data) {
				op.addr = binary.LittleEndian.Uint64(data[p+2:])
				p += 8
			}
			ops = append(ops, op)
		}
		diffRun(t, sets, ways, line, ops)
	})
}
