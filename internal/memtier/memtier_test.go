package memtier

import (
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/dram"
)

const testHz = 3.6e9

func testNVM(t testing.TB) *NVM {
	t.Helper()
	d, err := NewNVM(config.DefaultNVM(64*config.MB), testHz)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testCXL(t testing.TB) *CXL {
	t.Helper()
	d, err := NewCXL(config.DefaultCXL(64*config.MB), testHz)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNVMAsymmetricLatency: a write must take longer than a read at the
// same address on an idle device — the defining property of the media.
func TestNVMAsymmetricLatency(t *testing.T) {
	d := testNVM(t)
	read := d.Access(0, 0, false, 64)
	d2 := testNVM(t)
	write := d2.Access(0, 0, true, 64)
	if write <= read {
		t.Errorf("write latency %d <= read latency %d cycles", write, read)
	}
	st := d2.Stats()
	if st.Writes != 1 || st.WriteBytes != 64 || st.Reads != 0 {
		t.Errorf("write stats = %+v", st)
	}
}

// TestNVMWearAccounting: repeated writes to one wear block accumulate,
// MaxWear tracks the hottest block, and the wear survives ResetStats
// while activity counters clear.
func TestNVMWearAccounting(t *testing.T) {
	d := testNVM(t)
	var now uint64
	for i := 0; i < 10; i++ {
		now = d.Access(now, 64, true, 64) // same 4 KB block every time
	}
	d.Access(now, 8*config.KB, true, 64) // a second block, once
	st := d.Stats()
	if st.MaxWear != 10 {
		t.Errorf("max wear = %d, want 10", st.MaxWear)
	}
	if st.WearWrites != 11 {
		t.Errorf("wear writes = %d, want 11", st.WearWrites)
	}
	if got := d.WearLevel(64); got != 10 {
		t.Errorf("WearLevel(64) = %d, want 10", got)
	}
	d.ResetStats()
	st = d.Stats()
	if st.Writes != 0 || st.WriteBytes != 0 {
		t.Errorf("activity counters survived reset: %+v", st)
	}
	if st.MaxWear != 10 || st.WearWrites != 11 {
		t.Errorf("wear state lost on reset: %+v", st)
	}
}

// TestNVMWornBlocks: a block crossing its endurance budget is counted
// exactly once.
func TestNVMWornBlocks(t *testing.T) {
	cfg := config.DefaultNVM(64 * config.KB)
	cfg.EnduranceWrites = 3
	d, err := NewNVM(cfg, testHz)
	if err != nil {
		t.Fatal(err)
	}
	var now uint64
	for i := 0; i < 5; i++ {
		now = d.Access(now, 0, true, 64)
	}
	if st := d.Stats(); st.WornBlocks != 1 {
		t.Errorf("worn blocks = %d, want 1", st.WornBlocks)
	}
}

// TestNVMBankQueuing: back-to-back accesses to the same bank serialise;
// the second waits for the first.
func TestNVMBankQueuing(t *testing.T) {
	d := testNVM(t)
	first := d.Access(0, 0, false, 64)
	second := d.Access(0, 0, false, 64)
	if second <= first {
		t.Errorf("same-bank access did not queue: first done %d, second %d", first, second)
	}
	if st := d.Stats(); st.BankWaits == 0 {
		t.Errorf("bank wait not counted: %+v", st)
	}
}

// TestCXLLinkQueuing: the link is the serialisation point — issuing a
// burst of accesses at the same cycle stacks them behind one another
// and counts the waits.
func TestCXLLinkQueuing(t *testing.T) {
	d := testCXL(t)
	first := d.Access(0, 0, false, 64)
	second := d.Access(0, 4*config.KB, false, 64)
	if second <= first {
		t.Errorf("link did not serialise: first done %d, second %d", first, second)
	}
	if st := d.Stats(); st.LinkWaits != 1 || st.Reads != 2 || st.BytesMoved != 128 {
		t.Errorf("link stats = %+v", st)
	}
	// An idle link adds no queue delay; a busy one reports its backlog.
	if q := d.QueueDelay(1 << 40); q != 0 {
		t.Errorf("idle QueueDelay = %d", q)
	}
	if q := d.QueueDelay(0); q == 0 {
		t.Error("busy QueueDelay = 0")
	}
}

// TestCXLLatencyFloor: an idle access pays link round-trip plus media
// latency on top of serialisation — it must dwarf a local DRAM-class
// access time.
func TestCXLLatencyFloor(t *testing.T) {
	d := testCXL(t)
	done := d.Access(0, 0, false, 64)
	// 200 ns link + 80 ns media at 3.6 GHz is >1000 cycles.
	if done < 1000 {
		t.Errorf("CXL access completed in %d cycles; link+media floor missing", done)
	}
}

// TestBuildStack constructs one tier of each kind and checks the
// devices, names and power profiles resolve per kind and position.
func TestBuildStack(t *testing.T) {
	cfg := config.Default(256).WithNVMTier(64 * config.MB).WithCXLTier(64 * config.MB)
	tiers, err := BuildStack(cfg.MemoryTiers, testHz)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 4 {
		t.Fatalf("built %d tiers, want 4", len(tiers))
	}
	wantKinds := []string{config.TierDRAM, config.TierDRAM, config.TierNVM, config.TierCXL}
	for i, tier := range tiers {
		if tier.Kind != wantKinds[i] {
			t.Errorf("tier %d kind = %q, want %q", i, tier.Kind, wantKinds[i])
		}
		if tier.Index != i || tier.Name() == "" || tier.Capacity() == 0 {
			t.Errorf("tier %d identity incomplete: %+v", i, tier)
		}
		if _, isDRAM := tier.Dev.(*dram.Device); isDRAM != (wantKinds[i] == config.TierDRAM) {
			t.Errorf("tier %d device type %T mismatch for kind %q", i, tier.Dev, tier.Kind)
		}
	}
	// Positional power fallback: first DRAM tier stacked, second off-chip.
	if tiers[0].Power != config.DefaultStackedPower() || tiers[1].Power != config.DefaultOffChipPower() {
		t.Errorf("DRAM power fallback wrong: %+v / %+v", tiers[0].Power, tiers[1].Power)
	}
	if tiers[2].Power != config.DefaultNVMPower() || tiers[3].Power != config.DefaultCXLPower() {
		t.Errorf("device power fallback wrong: %+v / %+v", tiers[2].Power, tiers[3].Power)
	}
	// An explicit profile overrides the fallback.
	over := config.CloneTiers(cfg.MemoryTiers[:2])
	over[0].Power = &config.PowerConfig{BackgroundMW: 1}
	tiers, err = BuildStack(over, testHz)
	if err != nil {
		t.Fatal(err)
	}
	if tiers[0].Power.BackgroundMW != 1 {
		t.Errorf("explicit power profile ignored: %+v", tiers[0].Power)
	}
}

// TestAccessZeroAllocs pins the demand path: an Access on every device
// kind must not allocate.
func TestAccessZeroAllocs(t *testing.T) {
	cfg := config.Default(256).WithNVMTier(64 * config.MB).WithCXLTier(64 * config.MB)
	tiers, err := BuildStack(cfg.MemoryTiers, testHz)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range tiers {
		dev, now := tier.Dev, uint64(0)
		local := uint64(0)
		if n := testing.AllocsPerRun(1000, func() {
			now = dev.Access(now, local, local%128 == 0, 64)
			local = (local + 8256) % tier.Capacity()
		}); n != 0 {
			t.Errorf("%s (%s): %v allocs/access, want 0", tier.Name(), tier.Kind, n)
		}
	}
}

// BenchmarkTierAccess measures the per-device demand-access cost; the
// 0 allocs/op report is the allocation-free guarantee in CI numbers.
func BenchmarkTierAccess(b *testing.B) {
	cfg := config.Default(256).WithNVMTier(64 * config.MB).WithCXLTier(64 * config.MB)
	tiers, err := BuildStack(cfg.MemoryTiers, testHz)
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range tiers {
		b.Run(tier.Kind+"/"+tier.Name(), func(b *testing.B) {
			dev, now := tier.Dev, uint64(0)
			local, capBytes := uint64(0), tier.Capacity()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now = dev.Access(now, local, i&7 == 0, 64)
				local = (local + 8256) % capBytes
			}
		})
	}
}
