package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/memtrace"
	"chameleon/internal/osmodel"
	"chameleon/internal/policy"
	"chameleon/internal/stats"
	"chameleon/internal/workload"
)

// pinnedDigests are SHA-256 digests of every integer counter of a
// short run, per-tier device snapshots included (see resultDigest), per
// policy and pinnedRow or serialRow. They pin simulation results across
// rewrites of the engine and the layers below it, which the
// run-ahead-versus-serial equivalence tests cannot see.
// A change that legitimately alters simulated behaviour must re-record
// them and say why. The serial-* rows (TestSerialDigestsPinned) pin
// serial mode: evicting footprints, AutoNUMA and trace capture, which
// the run-ahead rows cannot reach. The cloverleaf-churn rows were
// recorded while the simulator still carried its original inline
// L1/L2/L3 walk and linear-scan scheduler, and both reproduced them.
var pinnedDigests = map[string]string{
	"alloy/churn-every-step":                        "6cfb40b5946e3040bda6649551007a6cf6b73316a107ddb658c005370ab4c212",
	"alloy/cloverleaf-churn":                        "8814c39be7aa7633ba191cd864847cd0653f26936a4901cda6524a65a8528b10",
	"alloy/mcf":                                     "55fbd002fe0bb609b0ff48ac9594d2af1eb3b8f38a98ed01c62730f7c261680f",
	"alloy/miniGhost":                               "3beadab76b5f52fa2ff8e2314f102587534799c07e0044ba6ba8aa2f2481183f",
	"alloy/serial-capture":                          "f0a3ea98a6ccba0541a62c811b76fc51f8c77616f2cc6b11973a131a5d5a8fad",
	"alloy/serial-capture/capture":                  "bd924bd68a97938d6eb11e7d0b5f6fb5b00e329a3d1de0ec0aca42006bf19610",
	"alloy/serial-evict":                            "0d3f52102348e980b77c13496eb9bed83ff33332d5b7744e6d08d83c7e0159a6",
	"alloy/serial-evict-timeline-churn":             "0fa885559520dc2af26885c52076d1b66bec32325f15e8a4f74086be201b3d72",
	"cameo/churn-every-step":                        "d0c2cdee65dac1f976c4b90bd97c9cce5e2506baba2cb8ec4fe8c02528bd417e",
	"cameo/cloverleaf-churn":                        "e0202f313f98ee976aaa9c1af754be2b866ee974f0df773bb4a8db858c365e3e",
	"cameo/mcf":                                     "8defa5a84fe9694d8ba4b63e0866d356b2896d1be8de9f86c1cd4b5abd58b6b6",
	"cameo/miniGhost":                               "ee0fdc45d649754e1d2e8a002d140be3d9f1185bd65a26664455988a96e0a4cb",
	"cameo/serial-evict":                            "c18d8003f38b52d7aa970c6e67c9163dae9d97f4ba8a7779bc52738fdee0ff20",
	"cameo/serial-evict-timeline-churn":             "19fe9d54b8c776f37dcb58b5636ad5d38fa40123cc5f787d237f820e9e2bdf7f",
	"chameleon-opt/churn-every-step":                "1b8c920d99b6d407cfc0ba25f61abee2ca9655faa99c5ef7eff0ede8e3369dbf",
	"chameleon-opt/cloverleaf-churn":                "2a976ff8eb958596ec590acf68eb5c837df2296e3fbc27b806c4c2574168e0ec",
	"chameleon-opt/mcf":                             "75084487bb8443181691f76d52194dbb5e04ec67e22f602f5c19190ecb697665",
	"chameleon-opt/miniGhost":                       "39500c8ba0beb129a44e4c6eb0a88f2c8692eead98f73ea06507e6f4005d7a6e",
	"chameleon-opt/serial-capture":                  "4b0ba61b1a30a7d3de3cdfe6d5c2d7b2871373f28310d7117d072aed51243de1",
	"chameleon-opt/serial-capture/capture":          "d4c5bd5030e6d096adf140aabf21475712c2192334f4d519f03ca53abb383b0d",
	"chameleon-opt/serial-evict":                    "fb1c290b2030ebfc1ea92af10de43eebb5019039946e50aa4eb1124ebf7c06ea",
	"chameleon-opt/serial-evict-timeline-churn":     "e2ec323108f3a469eb781450685b64bc624a6c754b99284d6c34ea33734026e8",
	"chameleon/churn-every-step":                    "d927ab59b58f72bc9c672b81b67c6a6da6a340946beb908f6f9cc31e97ca9e65",
	"chameleon/cloverleaf-churn":                    "ea3fa799b7cb9e896b9fac4eb932c70d9ca9ad7e8f7f9c6cabe8f3fe9e8a57ff",
	"chameleon/mcf":                                 "5dcfbf7e37469216a329d3e883d3a5933b4a9fe8bba2efb4558f0d191f81400d",
	"chameleon/miniGhost":                           "b8504983aa7079bc74e84fdd70095bc126af6b68a22e5c25eff1a534c48d1b68",
	"chameleon/serial-evict":                        "4847910cbb34818409a0fc182483a024a55cb69847f59497bb65fd3c77507c8b",
	"chameleon/serial-evict-timeline-churn":         "434fd44b235d45eb8d87f8943a5f5f6ec19c65865dc45f556db0f66a8e511d71",
	"flat/churn-every-step":                         "aefa705b281f8d44b24052d4f56a72160caafd7e890c56432424b3623bd867d2",
	"flat/cloverleaf-churn":                         "bc0ca8e5026e3c746cd4ec0b27f3a5fad75e53fb01e9ef43e04bdb69523d7fcd",
	"flat/mcf":                                      "7ae529cdab051a64ddfa12ac988dbaeeaeec8659d5ed2cdf6c43a419dc54f313",
	"flat/miniGhost":                                "ddde5a059807341997331fc0329cc1c33f21e3ae8c035b63417c727956507179",
	"flat/serial-evict":                             "403ec57da758c3d2ed66b1853bc0c2f080486765951ec3e9941f43c472e00d08",
	"flat/serial-evict-timeline-churn":              "b40e858b8db68840bf2e0d196a1bb1a393b68f7bd6fda4e8c6b2328626116f6f",
	"hwc/churn-every-step":                          "8b0959affbd71c6b16519edaff78dc2cad83a4f37881aaa59600a838351e8b5b",
	"hwc/cloverleaf-churn":                          "02d9f2c41dfebcf95fe10bd02f007188400eb522950d3b35d168ef1a2c397912",
	"hwc/mcf":                                       "9fa858c4e20f5fe6f0f23455e4985346fb01a5965ea74866d192c9f67fe5539c",
	"hwc/miniGhost":                                 "c29d00422c46b3980ff1448c98acb015d2a6ea8662b296b482db27300b8400c8",
	"hwc/serial-evict":                              "cdeba190dabd53edbc2ac2a4e4bec3f9e2f897dc919c44b3445955a0c1bd2a37",
	"hwc/serial-evict-timeline-churn":               "f0206ff5bd49b160dd4bb0ad8d3e3d02c4de4228037654baa985e9c5ad0abdcc",
	"numa-flat/churn-every-step":                    "1e4e4eae75c6739a641dce1b7d42399682d07f08313f26d9f836c2ea890930e6",
	"numa-flat/cloverleaf-churn":                    "ea1e5831c681c416942d007168969f983a30878cc3d9309e24f0ede91ac5a9b9",
	"numa-flat/mcf":                                 "075aea5fd465498e8df1bbaccd9ca8c8fecfd3f73b38192b8a400f62278a9a1f",
	"numa-flat/miniGhost":                           "859144f9edadd2019033976398dd68220cb5b42bfb2f1cc44194cdb2dd09278b",
	"numa-flat/serial-autonuma":                     "ab2fe09540bb56815cce4400c5a180b309133128bd1d398e7f3611012eb40e4c",
	"numa-flat/serial-autonuma-noprefault":          "21a5542cde57a65379c10def58dc1ad9f733015ec0ad41de0d9ea5398cfe6d29",
	"numa-flat/serial-autonuma-noprefault-timeline": "68597ded486650138d5e3fb58c16d27f090bdf829035577667ca66af31284a14",
	"numa-flat/serial-autonuma-timeline":            "21d9f38a4469a990820fbf764960222bb3f7f6cd8b2b49f432c4418214eb11c9",
	"numa-flat/serial-evict":                        "2f8336211643fa748f3ebcced7c445b236cd858afdc43dffd789b7c38b5c9648",
	"numa-flat/serial-evict-timeline-churn":         "d9080ddf2330d101cfe602d184355e230ae73a8221cd8a378b7ec71441b971c8",
	"polymorphic/churn-every-step":                  "d927ab59b58f72bc9c672b81b67c6a6da6a340946beb908f6f9cc31e97ca9e65",
	"polymorphic/cloverleaf-churn":                  "83e53560a6727c134f4acdabebc77936444149ee71d3ebce3ae9746fe89b7586",
	"polymorphic/mcf":                               "37de258d5e0abf2192dd32d8aa8ac3af106767984d3cf6ec3467236332677008",
	"polymorphic/miniGhost":                         "f3c8b6ea551987e991fa0ef9619cb5e3d4374b045b03bb8e5cc47290e8a28a78",
	"polymorphic/serial-evict":                      "4421e7f0540ff4ad0f718988b43b8fd0446e2a9e68ab43ff18a77172da1446c6",
	"polymorphic/serial-evict-timeline-churn":       "bebc888b94554070e1692ef922b6c987b9de92ec91c35b3b7c4ac39c1a93532b",
	"pom/churn-every-step":                          "4476bdfba7b6439a39eb52cece83b19be596a428fd0ee3a178be3cdebc21c968",
	"pom/cloverleaf-churn":                          "79535fbb73e40a360eca00a2859601e1e55a00672358cd5ebcf3ccd2bad65fb4",
	"pom/mcf":                                       "1423b531712e30edfcdd2de566022359ce4f5fd56335a0c6ab40909f9001c701",
	"pom/miniGhost":                                 "bd9912181f2595e61f143701c515ef756f7e93e9601b6a6ef5a07eb141e1d6e0",
	"pom/serial-evict":                              "b2c3ad0e45c7799e4298fc03a04f9457c2e67f56f90db26e75898bd024d42eae",
	"pom/serial-evict-timeline-churn":               "b8fcc60d5c4736e057b62a70333f85ab6ead455768e15f00a153881af38af6d4",
}

// snapshotType is the one map type digestInts hashes.
var snapshotType = reflect.TypeFor[stats.Snapshot]()

// digestInts writes every integer, boolean and stats.Snapshot counter
// reachable from v, in field order, into h. A Snapshot is hashed in
// sorted-key order, each key followed by its value's IEEE bits: every
// value there is a float64 copy of an integer counter, so the bits are
// exact. Other floats, strings and maps are skipped so the digest does
// not depend on the platform's math library or on map iteration order;
// every float in a Result is derived from counters that are hashed.
func digestInts(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
		h.Write(buf[:])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
		h.Write(buf[:])
	case reflect.Bool:
		if v.Bool() {
			buf[0] = 1
		}
		h.Write(buf[:1])
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestInts(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Len()))
		h.Write(buf[:])
		for i := 0; i < v.Len(); i++ {
			digestInts(h, v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			digestInts(h, v.Elem())
		}
	case reflect.Map:
		if v.Type() != snapshotType {
			return
		}
		snap := v.Interface().(stats.Snapshot)
		keys := snap.Keys()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(keys)))
		h.Write(buf[:])
		for _, k := range keys {
			h.Write([]byte(k))
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(snap[k]))
			h.Write(buf[:])
		}
	}
}

// resultDigest is the hex SHA-256 of r's integer counters.
func resultDigest(r *Result) string {
	h := sha256.New()
	digestInts(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedRow is one run shape TestResultDigestsPinned pins for every
// registered policy; its digests are keyed "<policy>/<name>".
type pinnedRow struct {
	name     string
	workload string
	// wlScale divides the workload's footprint (the machine itself is
	// always config.Default(512)).
	wlScale uint64
	instr   uint64
	// opts supplies the run settings; Config, Policy and Workload are
	// filled in per subtest.
	opts Options
}

var pinnedRows = []pinnedRow{
	{name: "mcf", workload: "mcf", wlScale: 4 * 512, instr: 60_000, opts: Options{
		Seed: 11, WarmupInstructions: 20_000, BaselineBytes: 24 * config.GB / 512,
	}},
	{name: "miniGhost", workload: "miniGhost", wlScale: 4 * 512, instr: 60_000, opts: Options{
		Seed: 11, WarmupInstructions: 20_000, BaselineBytes: 24 * config.GB / 512,
	}},
	// Allocation churn drives ISA notifications and mode switches
	// mid-run under timeline sampling.
	{name: "cloverleaf-churn", workload: "cloverleaf", wlScale: 512, instr: 100_000, opts: Options{
		Seed:                   31,
		WarmupInstructions:     300_000,
		TimelineEpochCycles:    500_000,
		PhaseAllocBytes:        64 * config.KB,
		PhaseEveryInstructions: 40_000,
		BaselineBytes:          24 * config.GB / 512,
	}},
	// A one-instruction phase period puts a boundary inside nearly
	// every step's gap, so the run pins that a step fires at most one
	// boundary however far its gap overshoots.
	{name: "churn-every-step", workload: "miniGhost", wlScale: 4 * 512, instr: 20_000, opts: Options{
		Seed:                   11,
		PhaseAllocBytes:        4 * config.KB,
		PhaseEveryInstructions: 1,
		BaselineBytes:          24 * config.GB / 512,
	}},
}

// TestResultDigestsPinned runs every registered policy on every
// pinnedRow and compares each result's integer-counter digest with the
// recorded value. The threads1 suffix keeps the subtest names of the
// records made while a parallel engine ran the same rows at two threads.
func TestResultDigestsPinned(t *testing.T) {
	const scale = 512
	for _, kind := range PolicyNames() {
		for _, row := range pinnedRows {
			key := kind + "/" + row.name
			t.Run(key+"/threads1", func(t *testing.T) {
				prof, err := workload.ByName(row.workload)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.Default(scale)
				desc, err := policy.Lookup(kind)
				if err != nil {
					t.Fatal(err)
				}
				for cfg.NumTiers() < desc.RequiredTiers() {
					cfg = cfg.WithNVMTier(32 * config.GB / scale)
				}
				opts := row.opts
				opts.Config = cfg
				opts.Policy = PolicyKind(kind)
				opts.Workload = prof.Scale(row.wlScale)
				sys, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(row.instr)
				if err != nil {
					t.Fatal(err)
				}
				got := resultDigest(res)
				want, ok := pinnedDigests[key]
				if !ok {
					t.Fatalf("no pinned digest for %s (got %s)", key, got)
				}
				if got != want {
					t.Errorf("digest %s, pinned %s", got, want)
				}
			})
		}
	}
}

// serialRow is one serial-mode run shape TestSerialDigestsPinned pins:
// baseOpts for each of its policies, changed by mutate. Its digests are
// keyed "<policy>/<name>"; a capture row also pins the SHA-256 of its
// memtrace capture under "<policy>/<name>/capture".
type serialRow struct {
	name     string
	policies []string // nil: every registered policy
	mutate   func(t testing.TB, o *Options)
	// evicts requires major faults in the measured run, so that
	// post-fault replays run.
	evicts  bool
	capture bool
}

// withTimelineChurn adds 50k-cycle timeline sampling and 64 KB
// allocation churn every 40k instructions to o.
func withTimelineChurn(o *Options) {
	o.TimelineEpochCycles = 50_000
	o.PhaseAllocBytes = 64 * config.KB
	o.PhaseEveryInstructions = 40_000
}

// autoNUMARow is a numa-flat row with an AutoNUMA engine and allocation
// churn, with or without prefaulting and timeline sampling.
func autoNUMARow(name string, prefault, timeline bool) serialRow {
	return serialRow{name: name, policies: []string{string(PolicyNUMAFlat)}, mutate: func(_ testing.TB, o *Options) {
		o.AutoNUMA = &osmodel.AutoNUMAConfig{EpochCycles: 100_000, Threshold: 0.9, ScanPages: 64}
		withTimelineChurn(o)
		if !timeline {
			o.TimelineEpochCycles = 0
		}
		o.SkipPrefault = !prefault
	}}
}

// serialRows are the shapes that ran in serial mode when their digests
// were recorded: footprints that can evict, AutoNUMA, and trace
// capture.
var serialRows = []serialRow{
	{name: "serial-evict", mutate: evictVariant.mutate, evicts: true},
	{name: "serial-evict-timeline-churn", mutate: func(t testing.TB, o *Options) {
		evictVariant.mutate(t, o)
		withTimelineChurn(o)
	}, evicts: true},
	autoNUMARow("serial-autonuma", true, false),
	autoNUMARow("serial-autonuma-timeline", true, true),
	autoNUMARow("serial-autonuma-noprefault", false, false),
	autoNUMARow("serial-autonuma-noprefault-timeline", false, true),
	{name: "serial-capture", policies: []string{string(PolicyChameleonOpt), string(PolicyAlloy)}, mutate: func(_ testing.TB, o *Options) {
		withTimelineChurn(o)
		o.SkipPrefault = true
	}, capture: true},
}

// TestSerialDigestsPinned pins serial mode's results the way
// TestResultDigestsPinned pins run-ahead's. Every serialRow reproduces
// the digests recorded while it ran in serial mode: the AutoNUMA and
// capture rows still run there (horizon −∞), and the evicting rows run
// at their default, bounded horizon.
func TestSerialDigestsPinned(t *testing.T) {
	for _, row := range serialRows {
		policies := row.policies
		if policies == nil {
			policies = PolicyNames()
		}
		for _, kind := range policies {
			key := kind + "/" + row.name
			t.Run(key, func(t *testing.T) {
				opts := baseOpts(t, kind)
				row.mutate(t, &opts)
				var buf bytes.Buffer
				var w *memtrace.Writer
				if row.capture {
					w = memtrace.NewWriter(&buf)
					opts.TraceSink = w
				}
				sys, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := map[bool]horizonMode{true: horizonBounded, false: horizonNone}[row.evicts]; sys.horizon != want {
					t.Fatalf("row runs at horizon %d, want %d", sys.horizon, want)
				}
				res, err := sys.Run(100_000)
				if err != nil {
					t.Fatal(err)
				}
				if row.evicts && res.OS.MajorFaults == 0 {
					t.Fatal("no major faults; the row is not exercising post-fault replays")
				}
				check := func(key, got string) {
					t.Helper()
					want, ok := pinnedDigests[key]
					if !ok {
						t.Errorf("no pinned digest for %s (got %s)", key, got)
					} else if got != want {
						t.Errorf("%s: digest %s, pinned %s", key, got, want)
					}
				}
				check(key, resultDigest(res))
				if row.capture {
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					check(key+"/capture", hex.EncodeToString(sum[:]))
				}
			})
		}
	}
}
