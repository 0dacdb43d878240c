package main

import (
	"slices"
	"sync"
	"time"
)

// The host this benchmark was built on slows memory-heavy code by up to
// 5x, for seconds to minutes at a time, while register-only loops keep
// their speed: other tenants' pressure on the shared caches. A
// simulation inherits the slowdown of whenever it happens to run, which
// made run medians of the same code differ by up to 2x between runs
// minutes apart. hostClock measures that slowdown with a fixed kernel,
// timed just before every timed operation, and the end-to-end times are
// reported at nominal host speed: each operation's measured time divided
// by the host factor of the sample before it.
//
// The kernel mirrors the simulator's mix of work: three quarters of its
// nominal time is a cache model that slows with the host, as the
// simulator's cache and memory models do, and one quarter is a
// register-only loop that does not, as the simulator's arithmetic does
// not. On recorded runs the simulator slowed as roughly the 0.5 to 0.85
// power of a pure cache-model kernel; the register-only quarter brings
// the kernel's own sensitivity into that range (see README.md). A sample
// runs the kernel on both CPUs at once and keeps the slower: the timed
// simulations run two threads, as chamd's jobs do and its sweeps run two
// cells, so the slower CPU sets their pace.
//
// The kernel is part of the benchmark's definition: changing it, or
// refNominal, changes every end-to-end time, so any change to it needs a
// new baseline.

// refNominal is the kernel's time on the 2-CPU host the benchmark was
// sized on, when no other tenant was slowing it: 24 ms of cache model
// and 8 ms of register-only loop.
const refNominal = 32 * time.Millisecond

const (
	refCPUs     = 2 // the CPUs of the host the benchmark was sized on
	refSets     = 4096
	refWays     = 16
	refAccesses = 1_000_000
	refRounds   = 3_600_000 // register-only xorshift rounds
)

// hostClock times the reference kernel and keeps every sample.
type hostClock struct {
	cpus    [refCPUs]kernel
	samples []float64 // seconds
}

// kernel is the state of one pass of the reference kernel.
type kernel struct {
	tags []uint64
	age  []uint32
	sink uint64 // the register loop's result, kept so it stays live
}

func newHostClock() *hostClock {
	h := &hostClock{}
	for i := range h.cpus {
		h.cpus[i] = kernel{tags: make([]uint64, refSets*refWays), age: make([]uint32, refSets*refWays)}
	}
	return h
}

// sample times one pass of the kernel on each CPU at once and returns
// the host factor of the slower.
func (h *hostClock) sample() float64 {
	var times [refCPUs]time.Duration
	var wg sync.WaitGroup
	for i := 1; i < refCPUs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = h.cpus[i].pass()
		}()
	}
	times[0] = h.cpus[0].pass()
	wg.Wait()
	d := slices.Max(times[:]).Seconds()
	h.samples = append(h.samples, d)
	return d / refNominal.Seconds()
}

// pass times one pass of the kernel: a register-only xorshift loop, then
// a 16-way set-associative cache model (786 KB of state) driven by a
// synthetic stream, three quarters a sequential walk over 1 MB and one
// quarter random lines over 64 MB.
func (k *kernel) pass() time.Duration {
	clear(k.tags)
	clear(k.age)
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	k.sink ^= x
	walk := uint64(0)
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := (x >> 8) % (64 << 20)
		if x%4 != 0 {
			walk = (walk + 64) % (1 << 20)
			a = walk
		}
		line := a >> 6
		base := int(line%refSets) * refWays
		victim, oldest := base, uint32(0)
		for w := base; w < base+refWays; w++ {
			if k.tags[w] == line {
				victim = -1
				k.age[w] = uint32(i)
				break
			}
			if d := uint32(i) - k.age[w]; d >= oldest {
				oldest, victim = d, w
			}
		}
		if victim >= 0 {
			k.tags[victim], k.age[victim] = line, uint32(i)
		}
	}
	return time.Since(start)
}

// factor is the run's host slowdown: the median sample over the
// kernel's nominal time. Divide a measured time by it to report it at
// nominal host speed.
func (h *hostClock) factor() float64 {
	return median(h.samples) / refNominal.Seconds()
}
