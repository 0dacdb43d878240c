package osmodel

import (
	"testing"
	"testing/quick"

	"chameleon/internal/addr"
)

// recorder captures ISA notifications.
type recorder struct {
	allocs []addr.Seg
	frees  []addr.Seg
}

func (r *recorder) ISAAlloc(now uint64, seg addr.Seg) { r.allocs = append(r.allocs, seg) }
func (r *recorder) ISAFree(now uint64, seg addr.Seg)  { r.frees = append(r.frees, seg) }

func testOS(t *testing.T, cfg Config, n Notifier) *OS {
	t.Helper()
	o, err := New(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func baseCfg() Config {
	return Config{
		TotalBytes:      1 << 20, // 256 pages
		FastBytes:       256 << 10,
		PageBytes:       4096,
		SegBytes:        2048,
		PageFaultCycles: 100_000,
		Alloc:           AllocSequential,
		Seed:            1,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.PageBytes = 0 },
		func(c *Config) { c.PageBytes = 3000 },
		func(c *Config) { c.TotalBytes = 5000 },
		func(c *Config) { c.FastBytes = c.TotalBytes + c.PageBytes },
		func(c *Config) { c.SegBytes = 8192 }, // larger than a page
	}
	for i, mut := range bad {
		c := baseCfg()
		mut(&c)
		if _, err := New(c, nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDemandPagingLifecycle(t *testing.T) {
	o := testOS(t, baseCfg(), nil)
	p := o.NewProcess()
	free0 := o.FreeBytes()

	phys, stall := o.Translate(p, 0, 0)
	if stall != 0 {
		t.Errorf("first touch with free memory stalled %d", stall)
	}
	if o.FreeBytes() != free0-4096 {
		t.Error("allocation did not consume a frame")
	}
	// Same page again: same frame, no fault.
	phys2, _ := o.Translate(p, 100, 0)
	if uint64(phys2) != uint64(phys)+100 {
		t.Errorf("offsets broken: %d vs %d", phys2, phys)
	}
	if o.Stats().MinorFaults != 1 {
		t.Errorf("minor faults = %d, want 1", o.Stats().MinorFaults)
	}

	o.FreeRange(p, 0, 4096, 0)
	if o.FreeBytes() != free0 {
		t.Error("free did not return the frame")
	}
	if p.resident != 0 {
		t.Error("resident count wrong after free")
	}
}

func TestSequentialFirstTouchUsesFastNodeFirst(t *testing.T) {
	cfg := baseCfg()
	cfg.Alloc = AllocFirstTouch
	o := testOS(t, cfg, nil)
	p := o.NewProcess()
	// Touch exactly as many pages as the fast node holds.
	fastPages := cfg.FastBytes / cfg.PageBytes
	for i := uint64(0); i < fastPages; i++ {
		phys, _ := o.Translate(p, i*cfg.PageBytes, 0)
		if uint64(phys) >= cfg.FastBytes {
			t.Fatalf("page %d landed off-chip while fast node had space", i)
		}
	}
	// The next touch must land off-chip.
	phys, _ := o.Translate(p, fastPages*cfg.PageBytes, 0)
	if uint64(phys) < cfg.FastBytes {
		t.Error("allocation should spill to the slow node when fast is full")
	}
	if o.FastFreeBytes() != 0 {
		t.Errorf("fast free = %d, want 0", o.FastFreeBytes())
	}
}

func TestShuffledAllocationSpreads(t *testing.T) {
	cfg := baseCfg()
	cfg.Alloc = AllocShuffled
	o := testOS(t, cfg, nil)
	p := o.NewProcess()
	fastHits := 0
	const touches = 128
	for i := uint64(0); i < touches; i++ {
		phys, _ := o.Translate(p, i*cfg.PageBytes, 0)
		if uint64(phys) < cfg.FastBytes {
			fastHits++
		}
	}
	// Fast node is 1/4 of memory; with uniform placement expect ~32.
	if fastHits < 12 || fastHits > 60 {
		t.Errorf("shuffled placement put %d/%d pages on the fast node, want ~32", fastHits, touches)
	}
}

func TestMajorFaultOnExhaustion(t *testing.T) {
	cfg := baseCfg()
	o := testOS(t, cfg, nil)
	p := o.NewProcess()
	pages := cfg.TotalBytes / cfg.PageBytes
	for i := uint64(0); i < pages; i++ {
		o.Translate(p, i*cfg.PageBytes, 0)
	}
	if o.Stats().MajorFaults != 0 {
		t.Fatal("no majors expected while memory lasts")
	}
	_, stall := o.Translate(p, pages*cfg.PageBytes, 0)
	if stall != cfg.PageFaultCycles {
		t.Errorf("stall = %d, want %d", stall, cfg.PageFaultCycles)
	}
	st := o.Stats()
	if st.MajorFaults != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The evicted page faults again when touched.
	evicted := -1
	for i := uint64(0); i < pages; i++ {
		if p.table[i] == noFrame {
			evicted = int(i)
			break
		}
	}
	if evicted < 0 {
		t.Fatal("no page was evicted")
	}
	if _, stall := o.Translate(p, uint64(evicted)*cfg.PageBytes, 0); stall == 0 {
		t.Error("touching the evicted page should major-fault")
	}
}

// TestTranslateVictimReportsOwner: a fault that evicts names the
// process whose page it took, Mapped sees the loss, and Mapped itself
// leaves the CLOCK reference bit alone.
func TestTranslateVictimReportsOwner(t *testing.T) {
	cfg := baseCfg()
	o := testOS(t, cfg, nil)
	a, b := o.NewProcess(), o.NewProcess()
	pages := cfg.TotalBytes / cfg.PageBytes
	for i := uint64(0); i < pages; i++ {
		if _, _, victim := o.TranslateVictim(a, i*cfg.PageBytes, 0); victim != -1 {
			t.Fatalf("page %d evicted process %d's page while memory lasted", i, victim)
		}
	}
	if o.Mapped(b, 0) || !o.Mapped(a, 0) || o.Mapped(a, pages*cfg.PageBytes) {
		t.Fatal("Mapped disagrees with the page tables")
	}
	for f := range o.meta {
		o.meta[f].ref = false
	}
	o.Mapped(a, 0)
	if o.meta[a.table[0]].ref {
		t.Fatal("Mapped set the reference bit")
	}
	_, stall, victim := o.TranslateVictim(b, 0, 0)
	if victim != a.ID() || stall != cfg.PageFaultCycles {
		t.Fatalf("victim %d stall %d, want process %d's page and a major fault", victim, stall, a.ID())
	}
	lost := 0
	for i := uint64(0); i < pages; i++ {
		if !o.Mapped(a, i*cfg.PageBytes) {
			lost++
		}
	}
	if lost != 1 || !o.Mapped(b, 0) {
		t.Errorf("process %d lost %d pages, want 1; faulting page mapped: %v", a.ID(), lost, o.Mapped(b, 0))
	}
}

func TestClockSecondChance(t *testing.T) {
	cfg := baseCfg()
	o := testOS(t, cfg, nil)
	p := o.NewProcess()
	pages := cfg.TotalBytes / cfg.PageBytes
	for i := uint64(0); i < pages; i++ {
		o.Translate(p, i*cfg.PageBytes, 0)
	}
	// Re-touch page 0 so its reference bit is set... (all ref bits are
	// set from the initial touch). One full CLOCK sweep clears them and
	// evicts the first candidate; page 0 must survive a second touch
	// before the next eviction.
	o.Translate(p, pages*cfg.PageBytes, 0) // evicts someone
	o.Translate(p, 0, 0)                   // page 0: ref set (or refault)
	before := o.Stats().Evictions
	o.Translate(p, (pages+1)*cfg.PageBytes, 0)
	if o.Stats().Evictions != before+1 {
		t.Error("second exhaustion should evict exactly one more page")
	}
}

func TestISANotificationsPerSegment(t *testing.T) {
	rec := &recorder{}
	o := testOS(t, baseCfg(), rec)
	p := o.NewProcess()
	o.Translate(p, 0, 0)
	// 4 KB page / 2 KB segments = 2 ISA-Alloc calls (Algorithm 1).
	if len(rec.allocs) != 2 {
		t.Fatalf("ISA-Alloc calls = %d, want 2", len(rec.allocs))
	}
	if rec.allocs[0] == rec.allocs[1] {
		t.Error("segment numbers must differ")
	}
	o.FreeAll(p, 0)
	if len(rec.frees) != 2 {
		t.Errorf("ISA-Free calls = %d, want 2", len(rec.frees))
	}
}

func TestEvictionDoesNotChurnISA(t *testing.T) {
	rec := &recorder{}
	cfg := baseCfg()
	o := testOS(t, cfg, rec)
	p := o.NewProcess()
	pages := cfg.TotalBytes / cfg.PageBytes
	for i := uint64(0); i <= pages; i++ { // one past capacity
		o.Translate(p, i*cfg.PageBytes, 0)
	}
	if len(rec.frees) != 0 {
		t.Error("eviction reuse must not issue ISA-Free")
	}
	wantAllocs := int(pages) * 2 // only fresh frames notify
	if len(rec.allocs) != wantAllocs {
		t.Errorf("ISA-Alloc calls = %d, want %d", len(rec.allocs), wantAllocs)
	}
}

func TestMapEager(t *testing.T) {
	o := testOS(t, baseCfg(), nil)
	p := o.NewProcess()
	if majors := o.Map(p, 0, 64*4096, 0); majors != 0 {
		t.Errorf("majors = %d", majors)
	}
	if p.ResidentBytes(4096) != 64*4096 {
		t.Errorf("resident = %d", p.ResidentBytes(4096))
	}
}

func TestStackedHitRateAccounting(t *testing.T) {
	cfg := baseCfg()
	cfg.Alloc = AllocFirstTouch
	o := testOS(t, cfg, nil)
	p := o.NewProcess()
	o.Translate(p, 0, 0) // lands on fast node
	o.Translate(p, 0, 0)
	if hr := o.StackedHitRate(); hr != 1 {
		t.Errorf("hit rate = %v, want 1", hr)
	}
	o.ResetStats()
	if o.StackedHitRate() != 0 {
		t.Error("hit rate not reset")
	}
}

func TestMultiProcessIsolation(t *testing.T) {
	o := testOS(t, baseCfg(), nil)
	a, b := o.NewProcess(), o.NewProcess()
	pa, _ := o.Translate(a, 0, 0)
	pb, _ := o.Translate(b, 0, 0)
	if pa == pb {
		t.Error("two processes shared a frame for private pages")
	}
}

// TestFreeBytesConservationProperty: after any sequence of touches and
// frees, free + resident bytes equals the total capacity.
func TestFreeBytesConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := baseCfg()
		cfg.Alloc = AllocShuffled
		o, err := New(cfg, nil)
		if err != nil {
			return false
		}
		p := o.NewProcess()
		pages := cfg.TotalBytes / cfg.PageBytes
		for _, op := range ops {
			page := uint64(op) % (pages - 1) // stay within capacity
			if op%3 == 0 {
				o.FreeRange(p, page*cfg.PageBytes, cfg.PageBytes, 0)
			} else {
				o.Translate(p, page*cfg.PageBytes, 0)
			}
		}
		return o.FreeBytes()+p.ResidentBytes(cfg.PageBytes) == cfg.TotalBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAllocPolicyString(t *testing.T) {
	for p, want := range map[AllocPolicy]string{
		AllocShuffled:   "shuffled",
		AllocFirstTouch: "first-touch",
		AllocSequential: "sequential",
		AllocInterleave: "interleave",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}
