// Package dram models a DRAM device (stacked or off-chip) with
// cycle-granularity timing: channels, ranks, banks, row-buffer state,
// core timing constraints (tRCD/tCAS/tRP/tRAS), periodic refresh
// (tREFI/tRFC) and data-bus occupancy.
//
// The model is a next-free-time bookkeeping model rather than a full
// command scheduler: each access computes its start and completion
// cycle from the current bank/bus/refresh state and advances that
// state. This preserves the first-order behaviour the evaluation
// depends on — row-buffer locality, bank conflicts, bandwidth limits
// and the stacked/off-chip bandwidth ratio — at a small fraction of the
// cost of a full FR-FCFS scheduler.
//
// All externally visible times are in CPU cycles.
package dram

import (
	"fmt"
	"math"

	"chameleon/internal/config"
	"chameleon/internal/stats"
)

// Stats aggregates device activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // bank was precharged (empty row buffer)
	RowConflicts uint64 // wrong row open
	BytesMoved   uint64
	RefreshWaits uint64 // accesses delayed by an in-progress refresh
	BusWaits     uint64 // accesses delayed by data-bus contention
}

// Snapshot flattens the stats into the unified metric shape.
func (s Stats) Snapshot() stats.Snapshot {
	return stats.Snapshot{
		"reads":         float64(s.Reads),
		"writes":        float64(s.Writes),
		"row_hits":      float64(s.RowHits),
		"row_misses":    float64(s.RowMisses),
		"row_conflicts": float64(s.RowConflicts),
		"bytes_moved":   float64(s.BytesMoved),
		"refresh_waits": float64(s.RefreshWaits),
		"bus_waits":     float64(s.BusWaits),
	}
}

type bank struct {
	openRow      int64 // -1 = precharged
	nextReady    uint64
	lastActivate uint64
}

type rank struct {
	nextRefresh uint64 // CPU cycle at which the next refresh begins
}

type channel struct {
	busFree  uint64 // end of the latest contiguous bus reservation
	resStart uint64 // start of that reservation region
	banks    []bank
	ranks    []rank
}

// Device is one DRAM device instance.
type Device struct {
	cfg    config.DRAMConfig
	cpuHz  float64
	perBus float64 // CPU cycles per bus cycle

	tCAS, tRCD, tRP, tRAS uint64 // in CPU cycles
	tRFC, tREFI           uint64 // in CPU cycles

	bytesPerBusCycle float64
	bankCount        int // banks per channel (ranks * banksPerRank)

	chans []channel
	stats Stats
}

// New builds a device from its configuration and the CPU frequency used
// to express all times.
func New(cfg config.DRAMConfig, cpuHz float64) (*Device, error) {
	if cfg.Channels <= 0 || cfg.RanksPerChan <= 0 || cfg.BanksPerRank <= 0 {
		return nil, fmt.Errorf("dram: %s: geometry must be positive", cfg.Name)
	}
	if cfg.BusFreqHz <= 0 || cpuHz <= 0 {
		return nil, fmt.Errorf("dram: %s: frequencies must be positive", cfg.Name)
	}
	perBus := cpuHz / cfg.BusFreqHz
	d := &Device{
		cfg:              cfg,
		cpuHz:            cpuHz,
		perBus:           perBus,
		tCAS:             busToCPU(cfg.TCAS, perBus),
		tRCD:             busToCPU(cfg.TRCD, perBus),
		tRP:              busToCPU(cfg.TRP, perBus),
		tRAS:             busToCPU(cfg.TRAS, perBus),
		tRFC:             nanosToCPU(cfg.TRFCNanos, cpuHz),
		tREFI:            nanosToCPU(cfg.TREFINanos, cpuHz),
		bytesPerBusCycle: float64(cfg.BusWidthBits) / 8 * 2, // DDR
		bankCount:        cfg.RanksPerChan * cfg.BanksPerRank,
	}
	d.chans = make([]channel, cfg.Channels)
	for i := range d.chans {
		d.chans[i].banks = make([]bank, d.bankCount)
		for b := range d.chans[i].banks {
			d.chans[i].banks[b].openRow = -1
		}
		d.chans[i].ranks = make([]rank, cfg.RanksPerChan)
		for r := range d.chans[i].ranks {
			// Stagger initial refreshes across ranks.
			d.chans[i].ranks[r].nextRefresh = d.tREFI * uint64(r+1) / uint64(cfg.RanksPerChan+1)
		}
	}
	return d, nil
}

func busToCPU(busCycles int, perBus float64) uint64 {
	return uint64(math.Ceil(float64(busCycles) * perBus))
}

func nanosToCPU(ns float64, cpuHz float64) uint64 {
	return uint64(math.Ceil(ns * 1e-9 * cpuHz))
}

// Name returns the configured device name.
func (d *Device) Name() string { return d.cfg.Name }

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() uint64 { return d.cfg.CapacityBytes }

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// Snapshot flattens the statistics into the unified snapshot shape.
func (d *Device) Snapshot() stats.Snapshot { return d.stats.Snapshot() }

// ResetStats clears the accumulated statistics (device timing state is
// preserved).
func (d *Device) ResetStats() { d.stats = Stats{} }

// BurstCycles returns the data-bus occupancy (in CPU cycles) of a
// transfer of the given size.
func (d *Device) BurstCycles(bytes int) uint64 {
	busCycles := float64(bytes) / d.bytesPerBusCycle
	return uint64(math.Ceil(busCycles * d.perBus))
}

// decode splits a device-local byte address into channel, bank and row.
// Channels interleave at cache-line (64 B) granularity to spread demand;
// rows interleave across banks within a channel.
func (d *Device) decode(local uint64) (ch, bk int, row int64) {
	line := local >> 6
	ch = int(line % uint64(len(d.chans)))
	perChan := line / uint64(len(d.chans))
	chanByte := perChan << 6
	rowGlobal := chanByte / uint64(d.cfg.RowBytes)
	bk = int(rowGlobal % uint64(d.bankCount))
	row = int64(rowGlobal / uint64(d.bankCount))
	return ch, bk, row
}

// refreshDelay advances the lazy refresh schedule for the rank owning
// bank bk and returns the earliest cycle >= t at which the bank can be
// used.
func (d *Device) refreshDelay(c *channel, bk int, t uint64) uint64 {
	r := &c.ranks[bk/d.cfg.BanksPerRank]
	// Catch the schedule up to t (refreshes that completed in the past).
	for r.nextRefresh+d.tRFC <= t {
		r.nextRefresh += d.tREFI
	}
	if t >= r.nextRefresh { // access lands inside the refresh window
		d.stats.RefreshWaits++
		t = r.nextRefresh + d.tRFC
		r.nextRefresh += d.tREFI
	}
	return t
}

// Access performs one transfer of size bytes at device-local address
// local, beginning no earlier than CPU cycle now. It returns the cycle
// at which the data transfer completes. Writes and reads share the same
// timing model; they are tracked separately in the statistics.
func (d *Device) Access(now uint64, local uint64, write bool, bytes int) (done uint64) {
	ch, bk, row := d.decode(local)
	c := &d.chans[ch]
	b := &c.banks[bk]

	t := max(now, b.nextReady)
	t = d.refreshDelay(c, bk, t)

	var dataAt uint64
	switch {
	case b.openRow == row:
		d.stats.RowHits++
		dataAt = t + d.tCAS
	case b.openRow < 0:
		d.stats.RowMisses++
		dataAt = t + d.tRCD + d.tCAS
		b.lastActivate = t
	default:
		d.stats.RowConflicts++
		// Precharge may not begin before tRAS expires.
		t = max(t, b.lastActivate+d.tRAS)
		dataAt = t + d.tRP + d.tRCD + d.tCAS
		b.lastActivate = t + d.tRP
	}
	b.openRow = row

	// The data bus is reserved in arrival order: an access whose bank
	// is not ready when its bus slot opens completes late, but does not
	// push the channel cursor to that future point (no ratcheting of
	// bus time by bank latency). An access that arrives with an earlier
	// timestamp than the current busy region backfills the idle bus
	// before it without reserving.
	burst := d.BurstCycles(bytes)
	var busStart uint64
	if now+burst <= c.resStart {
		busStart = now // backfill into the idle window before the region
	} else {
		busStart = max(now, c.busFree)
		if busStart > c.busFree {
			c.resStart = busStart // bus was idle: a new busy region starts
		}
		c.busFree = busStart + burst
	}
	if busStart > dataAt {
		d.stats.BusWaits++
	}
	done = max(dataAt, busStart) + burst
	b.nextReady = done

	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.BytesMoved += uint64(bytes)
	return done
}

// Stream transfers a contiguous region of length bytes starting at
// device-local address local as a sequence of line-sized accesses,
// returning the completion cycle of the last one. It is used for
// segment swaps and fills; the transfers consume bank and bus bandwidth
// exactly like demand accesses.
func (d *Device) Stream(now uint64, local uint64, write bool, bytes, lineBytes int) (done uint64) {
	if lineBytes <= 0 {
		lineBytes = 64
	}
	done = now
	for off := 0; off < bytes; off += lineBytes {
		n := min(lineBytes, bytes-off)
		end := d.Access(now, local+uint64(off), write, n)
		if end > done {
			done = end
		}
	}
	return done
}

// PeakBandwidth returns the device's aggregate peak bandwidth in
// bytes per second.
func (d *Device) PeakBandwidth() float64 { return d.cfg.PeakBandwidth() }

// QueueDelay returns how far (in CPU cycles) the busiest channel's data
// bus is booked beyond the given cycle — a congestion signal used by
// controllers to schedule background transfers opportunistically.
func (d *Device) QueueDelay(now uint64) uint64 {
	var worst uint64
	for i := range d.chans {
		if bf := d.chans[i].busFree; bf > now && bf-now > worst {
			worst = bf - now
		}
	}
	return worst
}
