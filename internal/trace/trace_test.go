package trace

import (
	"testing"
	"testing/quick"
)

func validProfile() Profile {
	return Profile{
		Name:           "test",
		FootprintBytes: 8 << 20,
		TargetLLCMPKI:  10,
		RefPKI:         100,
		StreamFrac:     0.3,
		HotFrac:        0.8,
		HotRegionFrac:  0.1,
		WriteFrac:      0.3,
		BurstLines:     16,
	}
}

func TestValidate(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.FootprintBytes = 100 },
		func(p *Profile) { p.RefPKI = 0 },
		func(p *Profile) { p.TargetLLCMPKI = 200 }, // above RefPKI
		func(p *Profile) { p.TargetLLCMPKI = -1 },
		func(p *Profile) { p.StreamFrac = 1.5 },
		func(p *Profile) { p.WriteFrac = -0.1 },
	}
	for i, mut := range bad {
		p := validProfile()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestScale(t *testing.T) {
	p := validProfile()
	s := p.Scale(4)
	if s.FootprintBytes != p.FootprintBytes/4 {
		t.Errorf("scaled footprint = %d", s.FootprintBytes)
	}
	if s.TargetLLCMPKI != p.TargetLLCMPKI {
		t.Error("MPKI must not change under scaling")
	}
	tiny := p.Scale(1 << 40)
	if tiny.FootprintBytes < 1<<16 {
		t.Error("scale must floor the footprint")
	}
	if p.Scale(0).FootprintBytes != p.FootprintBytes {
		t.Error("scale 0 should behave as 1")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := NewStream(validProfile(), 7)
	b, _ := NewStream(validProfile(), 7)
	for i := 0; i < 10000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("streams diverged at ref %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := NewStream(validProfile(), 1)
	b, _ := NewStream(validProfile(), 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().VAddr == b.Next().VAddr {
			same++
		}
	}
	if same > 900 {
		t.Errorf("streams with different seeds nearly identical (%d/1000)", same)
	}
}

// TestAddressesWithinFootprint: every generated address lies inside the
// virtual footprint (property over seeds).
func TestAddressesWithinFootprint(t *testing.T) {
	f := func(seed uint64) bool {
		p := validProfile()
		s, err := NewStream(p, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			if s.Next().VAddr >= p.FootprintBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddressesLineAligned(t *testing.T) {
	s, _ := NewStream(validProfile(), 3)
	for i := 0; i < 5000; i++ {
		if r := s.Next(); r.VAddr%64 != 0 {
			t.Fatalf("unaligned address %#x", r.VAddr)
		}
	}
}

// TestColdFractionMatchesTarget: the fraction of references leaving the
// warm region approximates TargetLLCMPKI/RefPKI.
func TestColdFractionMatchesTarget(t *testing.T) {
	p := validProfile()
	s, _ := NewStream(p, 11)
	cold := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if s.Next().VAddr >= cacheHot {
			cold++
		}
	}
	got := float64(cold) / n
	want := p.TargetLLCMPKI / p.RefPKI
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("cold fraction = %.4f, want ~%.4f", got, want)
	}
}

// TestGapMeanMatchesRefPKI: the average instruction gap approximates
// 1000/RefPKI.
func TestGapMeanMatchesRefPKI(t *testing.T) {
	p := validProfile()
	s, _ := NewStream(p, 13)
	var sum uint64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Next().Gap
	}
	mean := float64(sum) / n
	want := 1000 / p.RefPKI
	if mean < want*0.85 || mean > want*1.25 {
		t.Errorf("gap mean = %.2f, want ~%.2f", mean, want)
	}
}

// TestWriteFraction: overall write ratio is close to (but, because
// transient bursts are read-mostly, not above) WriteFrac.
func TestWriteFraction(t *testing.T) {
	p := validProfile()
	s, _ := NewStream(p, 17)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Next().Write {
			writes++
		}
	}
	got := float64(writes) / n
	if got < p.WriteFrac*0.7 || got > p.WriteFrac*1.1 {
		t.Errorf("write fraction = %.3f, want near %.3f", got, p.WriteFrac)
	}
}

// TestBurstStaysInSegment: consecutive non-stream cold refs stay inside
// one 2 KB segment for the duration of a burst.
func TestBurstStaysInSegment(t *testing.T) {
	p := validProfile()
	p.StreamFrac = 0 // bursts only
	s, _ := NewStream(p, 19)
	prevSeg := uint64(1 << 62)
	changes, colds := 0, 0
	for i := 0; i < 50000; i++ {
		r := s.Next()
		if r.VAddr < cacheHot {
			continue // warm ref
		}
		colds++
		seg := r.VAddr / segBytes
		if seg != prevSeg {
			changes++
			prevSeg = seg
		}
	}
	// With mean burst 16, segment changes should be ~colds/16.
	if changes > colds/6 {
		t.Errorf("segment changed %d times over %d cold refs; bursts not coherent", changes, colds)
	}
}

// TestStreamSequential: with StreamFrac 1 the cold stream walks
// consecutive lines.
func TestStreamSequential(t *testing.T) {
	p := validProfile()
	p.StreamFrac = 1
	p.TargetLLCMPKI = p.RefPKI // all refs cold
	s, _ := NewStream(p, 23)
	prev := s.Next().VAddr
	for i := 0; i < 1000; i++ {
		cur := s.Next().VAddr
		if cur != prev+64 && cur != 0 { // wrap allowed
			t.Fatalf("stream jumped from %#x to %#x", prev, cur)
		}
		prev = cur
	}
}

func TestHotRegionPlacement(t *testing.T) {
	p := validProfile()
	s, _ := NewStream(p, 29)
	if s.hotBase != (p.FootprintBytes/4)&^63 {
		t.Errorf("hot base = %#x, want footprint/4", s.hotBase)
	}
	if s.hotBytes < 4096 {
		t.Error("hot region too small")
	}
}

// TestHotShareOfColdTraffic: hot-region references dominate non-stream
// cold traffic per the HotFrac knob.
func TestHotShareOfColdTraffic(t *testing.T) {
	p := validProfile()
	p.StreamFrac = 0
	p.HotFrac = 0.8
	s, _ := NewStream(p, 31)
	hot, cold := 0, 0
	for i := 0; i < 300000; i++ {
		r := s.Next()
		if r.VAddr < cacheHot {
			continue
		}
		cold++
		if r.VAddr >= s.hotBase && r.VAddr < s.hotBase+s.hotBytes {
			hot++
		}
	}
	share := float64(hot) / float64(cold)
	if share < 0.7 || share > 0.9 {
		t.Errorf("hot share = %.3f, want ~0.8", share)
	}
}

// TestTransientWritesRarer: one-shot (transient) cold bursts must carry
// far fewer writes than the overall WriteFrac (stores target live
// data).
func TestTransientWritesRarer(t *testing.T) {
	p := validProfile()
	p.StreamFrac = 0
	p.HotFrac = 0.5
	p.WriteFrac = 0.4
	s, _ := NewStream(p, 37)
	var hotW, hotN, trW, trN int
	for i := 0; i < 300000; i++ {
		r := s.Next()
		if r.VAddr < cacheHot {
			continue
		}
		inHot := r.VAddr >= s.hotBase && r.VAddr < s.hotBase+s.hotBytes
		if inHot {
			hotN++
			if r.Write {
				hotW++
			}
		} else {
			trN++
			if r.Write {
				trW++
			}
		}
	}
	hotFrac := float64(hotW) / float64(hotN)
	trFrac := float64(trW) / float64(trN)
	if trFrac >= hotFrac/2 {
		t.Errorf("transient writes (%.3f) should be well below hot writes (%.3f)", trFrac, hotFrac)
	}
}

// TestBurstLengthCapped: a single burst never exceeds a segment's line
// count, even with an absurd BurstLines setting. (Two consecutive
// bursts may legitimately pick the same segment, so this checks the
// generator's internal burst counter rather than observed run length.)
func TestBurstLengthCapped(t *testing.T) {
	p := validProfile()
	p.BurstLines = 1000 // silly value must be capped at segment size
	p.StreamFrac = 0
	p.TargetLLCMPKI = p.RefPKI // all cold
	s, _ := NewStream(p, 41)
	for i := 0; i < 10000; i++ {
		s.Next()
		if s.burstLeft > int(segBytes/64) {
			t.Fatalf("burst counter %d exceeds %d lines", s.burstLeft, segBytes/64)
		}
	}
}
