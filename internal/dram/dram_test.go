package dram

import (
	"testing"
	"testing/quick"

	"chameleon/internal/config"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	cfg := config.Default(256)
	d, err := New(*cfg.Tier(1).DRAM, cfg.CPU.FreqHz)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fastDevice(t *testing.T) *Device {
	t.Helper()
	cfg := config.Default(256)
	d, err := New(*cfg.Tier(0).DRAM, cfg.CPU.FreqHz)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRowHitFasterThanConflict(t *testing.T) {
	d := testDevice(t)
	base := uint64(1 << 20)
	// First access opens a row.
	d.Access(0, base, false, 64)
	now := uint64(100_000)
	hitDone := d.Access(now, base+128, false, 64) // same channel, same row
	hitLat := hitDone - now

	// Conflict: same bank, different row. Row size 8 KB over 2 channels
	// and 32 banks: addresses 8 KB*32 channels*banks apart share a bank.
	now = 200_000
	d.Access(now, base, false, 64)
	now = 300_000
	confDone := d.Access(now, base+uint64(8<<10)*32*2, false, 64)
	confLat := confDone - now
	if hitLat >= confLat {
		t.Errorf("row hit latency %d should be below conflict latency %d", hitLat, confLat)
	}
}

func TestStatsClassification(t *testing.T) {
	d := testDevice(t)
	d.Access(0, 0, false, 64)
	st := d.Stats()
	if st.RowMisses != 1 || st.Reads != 1 {
		t.Errorf("first access stats = %+v", st)
	}
	d.Access(10_000, 128, true, 64)
	st = d.Stats()
	if st.RowHits != 1 || st.Writes != 1 {
		t.Errorf("after row hit stats = %+v", st)
	}
	if st.BytesMoved != 128 {
		t.Errorf("bytes = %d", st.BytesMoved)
	}
}

// TestBandwidthRatio: the stacked device must stream roughly 4x the
// bytes of the off-chip device per unit time (Table I bus widths and
// frequencies).
func TestBandwidthRatio(t *testing.T) {
	cfg := config.Default(256)
	f, _ := New(*cfg.Tier(0).DRAM, cfg.CPU.FreqHz)
	s, _ := New(*cfg.Tier(1).DRAM, cfg.CPU.FreqHz)
	fb := f.BurstCycles(64)
	sb := s.BurstCycles(64)
	ratio := float64(sb) / float64(fb)
	if ratio < 3 || ratio > 5 {
		t.Errorf("burst-cycle ratio = %v, want ~4", ratio)
	}
}

// TestStreamThroughput: a long sequential stream must achieve a decent
// fraction of peak bandwidth (row hits, pipelined bursts).
func TestStreamThroughput(t *testing.T) {
	d := testDevice(t)
	const total = 1 << 20 // 1 MB
	done := d.Stream(0, 0, false, total, 64)
	cfg := config.Default(256)
	seconds := float64(done) / cfg.CPU.FreqHz
	gbps := float64(total) / seconds / 1e9
	peak := d.PeakBandwidth() / 1e9
	if gbps < peak*0.5 {
		t.Errorf("streamed %0.1f GB/s, below half of peak %0.1f GB/s", gbps, peak)
	}
	if gbps > peak*1.01 {
		t.Errorf("streamed %0.1f GB/s exceeds peak %0.1f GB/s", gbps, peak)
	}
}

// TestRandomThroughputBelowStream: random traffic must be slower than
// streaming (row conflicts).
func TestRandomThroughputBelowStream(t *testing.T) {
	d := testDevice(t)
	streamDone := d.Stream(0, 0, false, 64*1024, 64)

	d2 := testDevice(t)
	rnd := uint64(12345)
	var now, last uint64
	for i := 0; i < 1024; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		last = d2.Access(now, rnd%d2.Capacity()&^63, false, 64)
		now = last
	}
	if last <= streamDone {
		t.Errorf("random chain (%d) should be slower than stream (%d)", last, streamDone)
	}
}

// TestNoRatchetFromFutureAccess: an access issued far in the future
// must not starve subsequent near-present accesses (the bus cursor is
// reserved in arrival order).
func TestNoRatchetFromFutureAccess(t *testing.T) {
	d := testDevice(t)
	d.Access(1_000_000, 0, false, 64) // a far-future access
	done := d.Access(100, 1<<16, false, 64)
	if done > 10_000 {
		t.Errorf("near-present access delayed to %d by a future access", done)
	}
}

// TestSteadyStateQueueBounded: offered load below capacity must keep
// the queue bounded over a long run.
func TestSteadyStateQueueBounded(t *testing.T) {
	d := testDevice(t)
	rnd := uint64(999)
	now := uint64(0)
	for i := 0; i < 200_000; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		d.Access(now, rnd%d.Capacity()&^63, false, 64)
		now += 40 // ~5.8 GB/s offered vs 25.6 GB/s peak
	}
	if q := d.QueueDelay(now); q > 5_000 {
		t.Errorf("queue delay %d grew without bound", q)
	}
}

func TestRefreshOccurs(t *testing.T) {
	d := testDevice(t)
	// Hammer one bank across several refresh intervals.
	now := uint64(0)
	for i := 0; i < 20_000; i++ {
		d.Access(now, 0, false, 64)
		now += 2_000
	}
	if d.Stats().RefreshWaits == 0 {
		t.Error("no refresh stalls over many tREFI windows")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		d := testDevice(t)
		var sum uint64
		rnd := uint64(5)
		now := uint64(0)
		for i := 0; i < 5000; i++ {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			sum += d.Access(now, rnd%d.Capacity()&^63, i%2 == 0, 64)
			now += 30
		}
		return sum
	}
	if run() != run() {
		t.Error("device timing is not deterministic")
	}
}

func TestNewErrors(t *testing.T) {
	cfg := *config.Default(1).Tier(1).DRAM
	cfg.Channels = 0
	if _, err := New(cfg, 3.6e9); err == nil {
		t.Error("zero channels should fail")
	}
	cfg = *config.Default(1).Tier(1).DRAM
	if _, err := New(cfg, 0); err == nil {
		t.Error("zero CPU frequency should fail")
	}
}

// TestMonotonicPerBankCompletion: repeated accesses to one bank at
// non-decreasing times complete in non-decreasing order.
func TestMonotonicPerBankCompletion(t *testing.T) {
	f := func(gaps []uint8) bool {
		d := fastDevice(t)
		now, prev := uint64(0), uint64(0)
		for _, g := range gaps {
			now += uint64(g)
			done := d.Access(now, 0, false, 64)
			if done < prev {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBurstCyclesScaleWithSize(t *testing.T) {
	d := testDevice(t)
	if d.BurstCycles(128) <= d.BurstCycles(64) {
		t.Error("larger transfers must occupy the bus longer")
	}
}

func TestStreamMovesAllBytes(t *testing.T) {
	d := testDevice(t)
	d.Stream(0, 0, true, 2048, 64)
	if d.Stats().BytesMoved != 2048 {
		t.Errorf("stream moved %d bytes, want 2048", d.Stats().BytesMoved)
	}
	if d.Stats().Writes != 32 {
		t.Errorf("stream issued %d writes, want 32", d.Stats().Writes)
	}
}
