package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/policy"
	"chameleon/internal/stats"
	"chameleon/internal/workload"
)

// pinnedDigests are SHA-256 digests of every integer counter of a
// short run, per-tier device snapshots included (see resultDigest), per
// policy and pinnedRow. They pin simulation results across rewrites of
// the engine and the layers below it, which the run-ahead-versus-serial
// equivalence tests cannot see.
// A change that legitimately alters simulated behaviour must re-record
// them and say why. The cloverleaf-churn rows were recorded while the
// simulator still carried its original inline L1/L2/L3 walk and
// linear-scan scheduler, and both reproduced them.
var pinnedDigests = map[string]string{
	"alloy/cloverleaf-churn":         "8814c39be7aa7633ba191cd864847cd0653f26936a4901cda6524a65a8528b10",
	"alloy/mcf":                      "55fbd002fe0bb609b0ff48ac9594d2af1eb3b8f38a98ed01c62730f7c261680f",
	"alloy/miniGhost":                "3beadab76b5f52fa2ff8e2314f102587534799c07e0044ba6ba8aa2f2481183f",
	"cameo/cloverleaf-churn":         "e0202f313f98ee976aaa9c1af754be2b866ee974f0df773bb4a8db858c365e3e",
	"cameo/mcf":                      "8defa5a84fe9694d8ba4b63e0866d356b2896d1be8de9f86c1cd4b5abd58b6b6",
	"cameo/miniGhost":                "ee0fdc45d649754e1d2e8a002d140be3d9f1185bd65a26664455988a96e0a4cb",
	"chameleon-opt/cloverleaf-churn": "2a976ff8eb958596ec590acf68eb5c837df2296e3fbc27b806c4c2574168e0ec",
	"chameleon-opt/mcf":              "75084487bb8443181691f76d52194dbb5e04ec67e22f602f5c19190ecb697665",
	"chameleon-opt/miniGhost":        "39500c8ba0beb129a44e4c6eb0a88f2c8692eead98f73ea06507e6f4005d7a6e",
	"chameleon/cloverleaf-churn":     "ea3fa799b7cb9e896b9fac4eb932c70d9ca9ad7e8f7f9c6cabe8f3fe9e8a57ff",
	"chameleon/mcf":                  "5dcfbf7e37469216a329d3e883d3a5933b4a9fe8bba2efb4558f0d191f81400d",
	"chameleon/miniGhost":            "b8504983aa7079bc74e84fdd70095bc126af6b68a22e5c25eff1a534c48d1b68",
	"flat/cloverleaf-churn":          "bc0ca8e5026e3c746cd4ec0b27f3a5fad75e53fb01e9ef43e04bdb69523d7fcd",
	"flat/mcf":                       "7ae529cdab051a64ddfa12ac988dbaeeaeec8659d5ed2cdf6c43a419dc54f313",
	"flat/miniGhost":                 "ddde5a059807341997331fc0329cc1c33f21e3ae8c035b63417c727956507179",
	"hwc/cloverleaf-churn":           "02d9f2c41dfebcf95fe10bd02f007188400eb522950d3b35d168ef1a2c397912",
	"hwc/mcf":                        "9fa858c4e20f5fe6f0f23455e4985346fb01a5965ea74866d192c9f67fe5539c",
	"hwc/miniGhost":                  "c29d00422c46b3980ff1448c98acb015d2a6ea8662b296b482db27300b8400c8",
	"numa-flat/cloverleaf-churn":     "ea1e5831c681c416942d007168969f983a30878cc3d9309e24f0ede91ac5a9b9",
	"numa-flat/mcf":                  "075aea5fd465498e8df1bbaccd9ca8c8fecfd3f73b38192b8a400f62278a9a1f",
	"numa-flat/miniGhost":            "859144f9edadd2019033976398dd68220cb5b42bfb2f1cc44194cdb2dd09278b",
	"polymorphic/cloverleaf-churn":   "83e53560a6727c134f4acdabebc77936444149ee71d3ebce3ae9746fe89b7586",
	"polymorphic/mcf":                "37de258d5e0abf2192dd32d8aa8ac3af106767984d3cf6ec3467236332677008",
	"polymorphic/miniGhost":          "f3c8b6ea551987e991fa0ef9619cb5e3d4374b045b03bb8e5cc47290e8a28a78",
	"pom/cloverleaf-churn":           "79535fbb73e40a360eca00a2859601e1e55a00672358cd5ebcf3ccd2bad65fb4",
	"pom/mcf":                        "1423b531712e30edfcdd2de566022359ce4f5fd56335a0c6ab40909f9001c701",
	"pom/miniGhost":                  "bd9912181f2595e61f143701c515ef756f7e93e9601b6a6ef5a07eb141e1d6e0",
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
