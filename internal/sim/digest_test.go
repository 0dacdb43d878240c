package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/policy"
	"chameleon/internal/workload"
)

// pinnedDigests are SHA-256 digests of every integer counter of a
// short run (see resultDigest), per policy and workload; both engines
// must produce it. They pin simulation results across rewrites of the
// layers below the engines, which the engine-versus-engine equivalence
// tests cannot see.
// A change that legitimately alters simulated behaviour must re-record
// them and say why.
var pinnedDigests = map[string]string{
	"alloy/mcf":               "06379e577a39b599efa4921fc2f73ade342de04a9f06c6a00d9b11493023af97",
	"alloy/miniGhost":         "5cd576d9398415c91b4e5a57fed888b4f555807060f5187dc5a03fb32854db6f",
	"cameo/mcf":               "d6fc112a6394e15081f81c4c0cd25b4ecb28f1ecdc41adc3e789eecafdd3ecad",
	"cameo/miniGhost":         "403f4bd34ff1de499b5215b041d5f3e1c5858a96fe917a1effad638ee1e3c9e0",
	"chameleon/mcf":           "4f88d0972a75de94920cd6697fb5dc0477ab055984d920add1c38dd24bee878c",
	"chameleon/miniGhost":     "0831b9087080b54cce1db4ffefd4ed4f73543c81086a7f9531212cd0af3ecb18",
	"chameleon-opt/mcf":       "de4f72ac62d3169d1c7a8a2b26d7b5bed508cd2b6fa2b35c1eca45642f8dd328",
	"chameleon-opt/miniGhost": "31ca07db92545cfe7dc39f7d13d79c3625220183c5f8ffe52eec0eb76bd8ad58",
	"flat/mcf":                "6326fe1ca3c72dca1e603d727555781d4902f2e735d54f4486c8168b6c60c1d2",
	"flat/miniGhost":          "f49d25900d5240979e6d740edb9da016662e4c9a929c5d68619a636e3fc49f62",
	"hwc/mcf":                 "62bbfc0ea82f5f011e5119357a5e08b690130f1caa74516ce0d59bdfa7c068bf",
	"hwc/miniGhost":           "3f14da240a0223031f0a412998f57f75e8e84782d73121621feee394705b4c18",
	"numa-flat/mcf":           "a3dfed7d3ab466e636b559e231dc811d423d1aa68d1706bba7664e4d9600b214",
	"numa-flat/miniGhost":     "109dc777648f9f7a76efed6f00b8c55281ae145cb7299dc042c7d71942f5d567",
	"polymorphic/mcf":         "e40941704709b837446aa533e1bb3bc6198165b212b582813a8062b19e011227",
	"polymorphic/miniGhost":   "da901a7b68c3ea2350d11eb1206e32ac2c5f10c45362f0e633ca0c4f842da1f7",
	"pom/mcf":                 "750016f9d3d89fb024100662a1ce0fb90ea0eb7c775d6eeab11e3260bb4fbc0a",
	"pom/miniGhost":           "017d3fc354a907f521708df5552de52e4fbdce8896ae68e37223f2a494949beb",
}

// digestInts writes every integer and boolean reachable from v, in
// field order, into h. Floats, strings and maps are skipped so the
// digest does not depend on the platform's math library or on map
// iteration order; every float in a Result is derived from counters
// that are hashed.
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
	}
}

// resultDigest is the hex SHA-256 of r's integer counters.
func resultDigest(r *Result) string {
	h := sha256.New()
	digestInts(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultDigestsPinned runs every registered policy on mcf (miss
// heavy) and miniGhost (L1 resident) on both engines and compares each
// result's integer-counter digest with the recorded value.
func TestResultDigestsPinned(t *testing.T) {
	const scale = 512
	for _, kind := range PolicyNames() {
		for _, wl := range []string{"mcf", "miniGhost"} {
			for _, threads := range []int{1, 2} {
				key := kind + "/" + wl
				name := fmt.Sprintf("%s/threads%d", key, threads)
				t.Run(name, func(t *testing.T) {
					prof, err := workload.ByName(wl)
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
					sys, err := New(Options{
						Config:             cfg,
						Policy:             PolicyKind(kind),
						Workload:           prof.Scale(4 * scale),
						Seed:               11,
						WarmupInstructions: 20_000,
						Threads:            threads,
						BaselineBytes:      24 * config.GB / scale,
					})
					if err != nil {
						t.Fatal(err)
					}
					res, err := sys.Run(60_000)
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
}
