// Package trace generates deterministic synthetic memory-reference
// streams that stand in for the paper's SPEC2006 / NAS / Mantevo /
// stream workloads. A Profile is calibrated by its target LLC-MPKI and
// memory footprint (Table II of the paper) plus locality knobs; the
// generated stream is fed through the simulated cache hierarchy, so
// the achieved LLC-MPKI is an emergent, testable property.
package trace

import (
	"fmt"

	"chameleon/internal/rng"
)

// Profile describes one synthetic application.
type Profile struct {
	Name           string
	FootprintBytes uint64  // per-process virtual footprint
	TargetLLCMPKI  float64 // Table II LLC misses per kilo-instruction
	RefPKI         float64 // L1 references per kilo-instruction
	StreamFrac     float64 // fraction of cold refs that stream sequentially
	HotFrac        float64 // fraction of non-stream cold refs hitting the hot region
	HotRegionFrac  float64 // hot region size as a fraction of the footprint
	WriteFrac      float64 // fraction of references that are writes
	// BurstLines is the mean number of consecutive references a
	// non-stream cold access keeps within one 2 KB segment before
	// moving on (spatial+temporal locality; 0 means the default of 16).
	// Pointer-chasing codes use small values, stencils large ones.
	BurstLines int
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	if p.FootprintBytes < 1<<16 {
		return fmt.Errorf("trace %s: footprint %d too small", p.Name, p.FootprintBytes)
	}
	if p.RefPKI <= 0 {
		return fmt.Errorf("trace %s: RefPKI must be positive", p.Name)
	}
	if p.TargetLLCMPKI < 0 || p.TargetLLCMPKI > p.RefPKI {
		return fmt.Errorf("trace %s: target MPKI %.2f out of range (RefPKI %.2f)", p.Name, p.TargetLLCMPKI, p.RefPKI)
	}
	for _, f := range []float64{p.StreamFrac, p.HotFrac, p.HotRegionFrac, p.WriteFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("trace %s: fractions must lie in [0,1]", p.Name)
		}
	}
	return nil
}

// Scale returns a copy of p with the footprint divided by div,
// preserving every other characteristic. Used to shrink experiments
// together with the machine's Scale divisor.
func (p Profile) Scale(div uint64) Profile {
	if div == 0 {
		div = 1
	}
	p.FootprintBytes /= div
	if p.FootprintBytes < 1<<16 {
		p.FootprintBytes = 1 << 16
	}
	return p
}

// MaxVAddr returns an inclusive upper bound on the virtual addresses
// the synthetic generator can emit for this profile: the footprint
// itself, or the end of the hot region when HotRegionFrac pushes it
// past the footprint (the hot region starts at footprint/4). Replayed
// traces recorded from synthetic streams obey the same bound. The
// simulator uses it to prove a run can never evict a page.
func (p Profile) MaxVAddr() uint64 {
	hot := uint64(float64(p.FootprintBytes)*p.HotRegionFrac) &^ 63
	if hot < 4096 {
		hot = 4096
	}
	base := (p.FootprintBytes / 4) &^ 63
	return max(p.FootprintBytes, base+hot)
}

// Ref is one generated memory reference.
type Ref struct {
	Gap   uint64 // instructions executed since the previous reference
	VAddr uint64
	Write bool
}

// Source produces one core's reference stream. *Stream (the synthetic
// generator) and internal/memtrace's trace replay both implement it,
// so the simulator drives synthetic and recorded workloads through the
// same per-core interface.
type Source interface {
	// Next produces the next reference. Sources never run dry: the
	// synthetic generator is infinite and trace replay wraps around.
	Next() Ref
	// Profile describes the stream (name, footprint, and — for
	// synthetic sources — the generator knobs).
	Profile() Profile
}

// Sink receives a run's per-core reference streams as they are
// consumed, e.g. to record them (internal/memtrace's Writer). Begin is
// called once, before any references flow, with the run's workload
// name and the resolved per-core profiles; Emit is the hot path and
// must not block or allocate. Emit-time failures latch inside the sink
// and surface from its own close/flush API. Callers guarantee Emit is
// invoked from a single goroutine at a time, in the simulation's
// committed step order, so implementations need no locking.
type Sink interface {
	Begin(runName string, cores []Profile) error
	Emit(core int, r Ref)
}

// Stream generates the reference stream for one process.
type Stream struct {
	prof Profile
	rnd  rng.RNG // by value: Next reaches its state without a pointer hop

	coldProb   float64 // probability that a ref bypasses the hot set
	gapMean    uint64  // mean instructions between refs
	streamPtr  uint64  // sequential cursor (line granularity)
	hotBytes   uint64  // size of the upper hot region
	hotBase    uint64  // start of the hot region
	totalLines uint64

	// current burst state
	burstLeft      int
	burstSeg       uint64 // segment index (segBytes units)
	burstLine      uint64 // walking line cursor within the segment
	burstMean      int
	burstTransient bool // current burst targets one-shot data
}

// segBytes is the generator's notion of a spatial-locality granule,
// matching the paper's 2 KB segment.
const segBytes = 2048

const cacheHot = 16 << 10 // the per-core region warm references land in; fits in L1

// NewStream builds a generator; distinct seeds give statistically
// independent but reproducible copies (the paper's rate mode).
func NewStream(p Profile, seed uint64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hot := uint64(float64(p.FootprintBytes) * p.HotRegionFrac)
	hot &^= 63
	if hot < 4096 {
		hot = 4096
	}
	burst := p.BurstLines
	if burst <= 0 {
		burst = 16
	}
	s := &Stream{
		prof:       p,
		rnd:        *rng.New(seed),
		coldProb:   p.TargetLLCMPKI / p.RefPKI,
		gapMean:    uint64(1000 / p.RefPKI),
		hotBytes:   hot,
		hotBase:    (p.FootprintBytes / 4) &^ 63,
		totalLines: p.FootprintBytes >> 6,
		burstMean:  burst,
	}
	if s.gapMean == 0 {
		s.gapMean = 1
	}
	s.streamPtr = s.rnd.Uint64n(s.totalLines)
	return s, nil
}

// Profile returns the stream's profile.
func (s *Stream) Profile() Profile { return s.prof }

// Next produces the next reference.
func (s *Stream) Next() Ref {
	// Gap: uniform in [gapMean/2, 3*gapMean/2) keeps the mean while
	// de-synchronising the cores.
	gap := s.gapMean/2 + s.rnd.Uint64n(s.gapMean) + 1

	var va uint64
	transient := false
	if s.rnd.Float64() < s.coldProb {
		va, transient = s.coldRef()
	} else {
		// Warm reference: lands in a tiny cache-resident region.
		va = s.rnd.Uint64n(cacheHot) &^ 63
	}
	// Writes concentrate on re-referenced (warm/hot/stream) data;
	// transient one-shot reads are read-mostly, as in real codes where
	// stores target the live working set.
	wf := s.prof.WriteFrac
	if transient {
		wf *= 0.15
	}
	write := s.rnd.Float64() < wf
	return Ref{Gap: gap, VAddr: va, Write: write}
}

// cold produces a reference that misses the cache hierarchy. Three
// behaviours: sequential streaming, and segment-granularity bursts to
// either the hot region (re-referenced over the run) or a uniformly
// random segment. Bursts model the spatial/temporal locality that PoM
// segments and Chameleon's cache mode exploit; repeated visits to hot
// segments give line-granularity designs (Alloy, CAMEO) their reuse.
func (s *Stream) coldRef() (va uint64, transient bool) {
	const segLines = segBytes / 64
	if s.burstLeft > 0 {
		s.burstLeft--
		s.burstLine = (s.burstLine + 1) % segLines
		return s.burstSeg*segBytes + s.burstLine<<6, s.burstTransient
	}
	if s.rnd.Float64() < s.prof.StreamFrac {
		s.streamPtr++
		if s.streamPtr >= s.totalLines {
			s.streamPtr = 0
		}
		return s.streamPtr << 6, false
	}
	// Start a new burst: a walk of distinct lines within one segment,
	// of length uniform in [1, min(2*burstMean, segLines)], starting
	// from a random line.
	maxLen := min(2*s.burstMean-1, segLines)
	s.burstLeft = s.rnd.Intn(maxLen) + 1
	if s.rnd.Float64() < s.prof.HotFrac {
		s.burstSeg = (s.hotBase + s.rnd.Uint64n(s.hotBytes)) / segBytes
		s.burstTransient = false
	} else {
		s.burstSeg = s.rnd.Uint64n(s.prof.FootprintBytes) / segBytes
		s.burstTransient = true
	}
	s.burstLine = s.rnd.Uint64n(segLines)
	s.burstLeft--
	return s.burstSeg*segBytes + s.burstLine<<6, s.burstTransient
}
