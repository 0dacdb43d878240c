package sim

import (
	"fmt"
	"math"

	"chameleon/internal/trace"
)

// horizonMode says how runPrivate bounds its run-ahead translations
// (DESIGN.md §7). A step at commit position (key, i) translates a
// mapped page ahead of the commit order only while (key, i) precedes
// core i's fault horizon; any other step parks at its translation.
type horizonMode uint8

const (
	// horizonNone (−∞): every step parks at its translation. AutoNUMA
	// and trace capture observe every translation in commit order.
	horizonNone horizonMode = iota
	// horizonBounded: core i's horizon is the least (bound[j], j) over
	// the other unfinished cores, each bound read from the core's
	// lookahead. Footprints that can evict run here.
	horizonBounded
	// horizonOpen (+∞): nothing can evict, so every mapped page
	// translates ahead.
	horizonOpen
)

// lookDepth is how many pre-generated references each core's lookahead
// holds in a bounded run. A core's bound reaches at most this many
// references past its clock.
const lookDepth = 128

// lookahead is one core's queue of pre-generated references in a
// bounded run. It is the core's trace.Source: runPrivate consumes the
// queue in order and reads the underlying source directly when the
// queue is empty, so the reference sequence is the source's own.
// rebound refills it and scans it for the core's next possible fault.
type lookahead struct {
	src  trace.Source
	refs [lookDepth]trace.Ref
	// gaps[k] and cycs[k] are the instruction and CPI-scaled cycle gaps
	// of every reference queued before slot k's, summed since the
	// lookahead began; gapSum and cycSum carry the sums past the tail.
	gaps, cycs     [lookDepth]uint64
	gapSum, cycSum uint64
	// The queue is [head, tail), counted in references ever queued.
	head, tail uint64
	// scan: the references in [head, scan) touch mapped pages and start
	// before the next phase boundary. Only an eviction of the core's
	// page or its own phase commit can break that, and both reset it.
	scan uint64
}

// Next implements trace.Source.
func (l *lookahead) Next() trace.Ref {
	if l.head == l.tail {
		return l.src.Next()
	}
	r := l.refs[l.head%lookDepth]
	l.head++
	return r
}

// Profile implements trace.Source.
func (l *lookahead) Profile() trace.Profile { return l.src.Profile() }

// setHorizon puts the system in mode m: a bounded run reads every
// core's references through a lookahead, and the others read their
// sources directly. It runs at construction (tests force a mode with
// it before Run).
func (s *System) setHorizon(m horizonMode) {
	c := &s.cores
	for i, src := range c.stream {
		if l, ok := src.(*lookahead); ok {
			c.stream[i] = l.src
		}
	}
	c.look = nil
	if m == horizonBounded {
		c.look = make([]lookahead, c.n())
		for i := range c.look {
			c.look[i].src = c.stream[i]
			c.stream[i] = &c.look[i]
		}
	}
	for i, src := range c.stream {
		c.synth[i], _ = src.(*trace.Stream)
	}
	s.horizon = m
}

// horizonOf returns core i's fault horizon as a (key, id) position:
// a step at (key, i) may translate ahead iff key < hKey, or key == hKey
// and i < hID. Within one runPrivate call only core i runs, so the
// horizon is fixed for the call.
func (s *System) horizonOf(i int) (hKey uint64, hID int) {
	switch s.horizon {
	case horizonNone:
		return 0, 0
	case horizonOpen:
		return math.MaxUint64, 0
	}
	hKey = math.MaxUint64
	for j, b := range s.cores.bound {
		if j != i && (b < hKey || b == hKey && j < hID) {
			hKey, hID = b, j
		}
	}
	return hKey, hID
}

// rebound recomputes core i's fault bound after it parks, or after a
// commit unmapped one of its pages: the commit key of its parked event
// if that event can evict (a fault on an unmapped page, a phase
// boundary), else its clock plus the CPI-scaled gaps of the queued
// references before the first that touches an unmapped page, starts at
// or past the next phase boundary, or lies past the queue's end. Stalls
// only add to the clock, so the sum is a lower bound. rebound refills
// the queue first.
func (s *System) rebound(i int) {
	c := &s.cores
	switch ev := &c.ev[i]; ev.kind {
	case evPhase:
		c.bound[i] = c.key[i]
		return
	case evTranslate:
		if !s.os.Mapped(c.proc[i], ev.phys) {
			c.bound[i] = c.key[i]
			return
		}
	}
	l := &c.look[i]
	for l.tail-l.head < lookDepth {
		r := l.src.Next()
		k := l.tail % lookDepth
		l.refs[k], l.gaps[k], l.cycs[k] = r, l.gapSum, l.cycSum
		l.gapSum += r.Gap
		l.cycSum += r.Gap * s.baseCPIx1000 / 1000
		l.tail++
	}
	h := l.head % lookDepth
	m := max(l.scan, l.head)
	for ; m < l.tail; m++ {
		k := m % lookDepth
		// An unarmed boundary (0, before the core's first step) stops
		// the scan at once.
		if s.phaseOn && c.instr[i]+l.gaps[k]-l.gaps[h] >= c.phaseNext[i] {
			break
		}
		if !s.os.Mapped(c.proc[i], l.refs[k].VAddr) {
			break
		}
	}
	l.scan = m
	cyc := l.cycSum
	if m < l.tail {
		cyc = l.cycs[m%lookDepth]
	}
	c.bound[i] = c.time[i] + cyc - l.cycs[h]
}

// evicted handles an eviction committed by core i, whose fault or phase
// took a page of core victim (every core runs its own process, so a
// process ID is a core index; -1 when a phase's evictions may have hit
// any core). It checks the invariant the horizon guarantees — no other
// core has translated ahead past this commit — and, in a bounded run,
// re-bounds the cores whose queued pages may have lost their mapping.
func (s *System) evicted(i, victim int) error {
	c := &s.cores
	k := c.key[i]
	for j, a := range c.ahead {
		if j != i && a != 0 && (a-1 > k || a-1 == k && j > i) {
			return fmt.Errorf("sim: fault at core %d evicted a page after core %d translated past it, violating the fault horizon", i, j)
		}
	}
	if s.horizon != horizonBounded {
		return nil
	}
	for j := range c.look {
		if victim < 0 || j == victim {
			c.look[j].scan = c.look[j].head
			// Core i re-bounds when it parks, and a finished core
			// (bound +∞) has no step left to bound.
			if j != i && c.bound[j] != math.MaxUint64 {
				s.rebound(j)
			}
		}
	}
	return nil
}
