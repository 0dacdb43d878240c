package cache

import (
	"testing"
	"testing/quick"
)

// probe reports whether addr is resident without disturbing recency
// or statistics.
func (c *Cache) probe(addr uint64) bool {
	set, key := c.set(addr)
	for _, w := range set {
		if w&^dirtyBit == key {
			return true
		}
	}
	return false
}

func mustCache(t *testing.T, size, ways, line int) *Cache {
	t.Helper()
	c, err := New("t", size, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBasicHitMiss(t *testing.T) {
	c := mustCache(t, 4096, 4, 64) // 16 sets
	if hit, _, _ := c.Access(0, false); hit {
		t.Error("first access should miss")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("second access should hit")
	}
	if hit, _, _ := c.Access(32, false); !hit {
		t.Error("same-line access should hit")
	}
	if hit, _, _ := c.Access(64, false); hit {
		t.Error("next line should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64) // 1 set, 2 ways
	c.Access(0, false)
	c.Access(64, false)
	c.Access(0, false)   // touch 0 again; 64 is now LRU
	c.Access(128, false) // evicts 64
	if !c.probe(0) {
		t.Error("line 0 (MRU) should survive")
	}
	if c.probe(64) {
		t.Error("line 64 (LRU) should be evicted")
	}
	if !c.probe(128) {
		t.Error("line 128 should be resident")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64)
	c.Access(0, true) // dirty
	c.Access(64, false)
	_, v, hv := c.Access(128, false) // evicts 0
	if !hv || v.Addr != 0 || !v.Dirty {
		t.Errorf("victim = %+v (hv=%v), want dirty line 0", v, hv)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanVictimNotWrittenBack(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64)
	c.Access(0, false)
	c.Access(64, false)
	_, v, hv := c.Access(128, false)
	if !hv || v.Dirty {
		t.Errorf("victim = %+v, want clean", v)
	}
	if c.Stats().Writebacks != 0 {
		t.Error("clean eviction should not count a writeback")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := mustCache(t, 2*64, 2, 64)
	c.Access(0, false)
	c.Access(0, true) // write hit
	c.Access(64, false)
	_, v, _ := c.Access(128, false) // evict 0
	if !v.Dirty {
		t.Error("write hit should have marked the line dirty")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 12 MB, 16 ways, 64 B lines => 12288 sets (Table I's L3).
	c := mustCache(t, 12<<20, 16, 64)
	c.Access(0, false)
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("L3-geometry cache broken")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("x", 0, 4, 64); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := New("x", 4096, 4, 48); err == nil {
		t.Error("non power-of-two line should fail")
	}
	if _, err := New("x", 64, 4, 64); err == nil {
		t.Error("cache smaller than one set should fail")
	}
	if _, err := New("x", 4096, 4, 2); err == nil {
		t.Error("line below 4 B should fail")
	}
}

// TestCapacityProperty: after any access sequence, the number of
// resident distinct lines cannot exceed the cache's line capacity, and
// a working set no larger than one set's associativity always hits
// after the first touch.
func TestCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New("q", 2048, 4, 64) // 32 lines
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		resident := 0
		for line := uint64(0); line <= 0xFFFF>>6; line++ {
			if c.probe(line << 6) {
				resident++
			}
		}
		return resident <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSmallWorkingSetAlwaysHits(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	// 4 lines in the same set (set 0 of 16): exactly associativity.
	lines := []uint64{0, 16 * 64, 32 * 64, 48 * 64}
	for _, l := range lines {
		c.Access(l, false)
	}
	st0 := c.Stats()
	for i := 0; i < 100; i++ {
		for _, l := range lines {
			c.Access(l, false)
		}
	}
	if got := c.Stats().Misses - st0.Misses; got != 0 {
		t.Errorf("resident working set missed %d times", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustCache(t, 4096, 4, 64)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("contents should survive a stats reset")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
	s = Stats{Accesses: 10, Misses: 4}
	if s.MissRate() != 0.4 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}
