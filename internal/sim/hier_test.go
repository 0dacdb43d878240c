package sim

import (
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// TestMixWorkloadNames: under Options.Mix the result must name every
// application, not silently report Mix[0] — per core the profile it
// ran, and the joined mix in Result.Workload.
func TestMixWorkloadNames(t *testing.T) {
	const scale = 512
	cfg := config.Default(scale)
	bwaves, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	leslie, err := workload.ByName("leslie3d")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:   cfg,
		Policy:   PolicyChameleon,
		Workload: bwaves.Scale(scale), // validation fallback; Mix drives the cores
		Mix:      []trace.Profile{bwaves.Scale(scale), leslie.Scale(scale)},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "bwaves+leslie3d" {
		t.Errorf("Result.Workload = %q, want the joined mix name", res.Workload)
	}
	for i, cr := range res.Cores {
		want := "bwaves"
		if i%2 == 1 {
			want = "leslie3d"
		}
		if cr.Workload != want {
			t.Errorf("core %d workload = %q, want %q", i, cr.Workload, want)
		}
	}
}

// TestSingleWorkloadName pins the non-mix naming: Result.Workload and
// every CoreResult carry the profile's name.
func TestSingleWorkloadName(t *testing.T) {
	const scale = 512
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:   config.Default(scale),
		Policy:   PolicyPoM,
		Workload: prof.Scale(scale),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "bwaves" {
		t.Errorf("Result.Workload = %q, want bwaves", res.Workload)
	}
	for i, cr := range res.Cores {
		if cr.Workload != "bwaves" {
			t.Errorf("core %d workload = %q, want bwaves", i, cr.Workload)
		}
	}
}

// TestResultLevels: a run on the default config reports one LevelResult
// per configured level, in hierarchy order, with inclusive activity
// (each level's accesses bounded by the previous level's misses + its
// writeback fills) and lower-cased per-level snapshot namespaces.
func TestResultLevels(t *testing.T) {
	const scale = 512
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Options{
		Config:   config.Default(scale),
		Policy:   PolicyChameleonOpt,
		Workload: prof.Scale(scale),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(res.Levels))
	}
	for i, want := range []string{"L1", "L2", "L3"} {
		if res.Levels[i].Level != want {
			t.Errorf("level %d named %q, want %q", i, res.Levels[i].Level, want)
		}
	}
	l1, l3 := res.Levels[0].Stats, res.Levels[2].Stats
	if l1.Accesses == 0 || l3.Accesses == 0 {
		t.Fatalf("levels saw no traffic: %+v", res.Levels)
	}
	// The LLC sees every demand miss the cores counted, plus fills from
	// dirty-victim cascades; its miss count can only exceed the cores'.
	if l3.Misses < res.totalLLCMisses() {
		t.Errorf("LLC misses %d below summed core LLC misses %d", l3.Misses, res.totalLLCMisses())
	}
	snap := res.Snapshot()
	for _, key := range []string{"l1.accesses", "l2.misses", "l3.miss_rate"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing per-level key %q", key)
		}
	}
}

// totalLLCMisses sums the per-core demand LLC misses.
func (r *Result) totalLLCMisses() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.LLCMisses
	}
	return n
}
