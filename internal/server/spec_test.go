package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/workload"
)

// TestSpecMachineValidation: a sim spec is accepted only when its
// scale and ratio build a valid machine. A negative ratio would
// otherwise normalize, be ignored by SimOptions and split the result
// cache from ratio 0; a ratio or scale that starves a tier would pass
// submission and fail only inside a worker.
func TestSpecMachineValidation(t *testing.T) {
	threeTier := config.Default(256).WithNVMTier(128 * config.MB).MemoryTiers
	for _, tc := range []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"unset", JobSpec{Policy: "pom", Workload: "bwaves"}, true},
		{"paper ratio", JobSpec{Policy: "pom", Workload: "bwaves", Ratio: 3}, true},
		{"ratio on a three-tier stack", JobSpec{Policy: "hwc", Workload: "bwaves", Ratio: 7, MemoryTiers: threeTier}, true},
		{"negative", JobSpec{Policy: "pom", Workload: "bwaves", Ratio: -1}, false},
		{"negative on a matrix job", JobSpec{Kind: KindMatrix, Workloads: []string{"bwaves"}, Ratio: -1}, false},
		{"empties the stacked tier", JobSpec{Policy: "pom", Workload: "bwaves", Ratio: 1 << 20}, false},
		{"empties the first tier of a custom stack", JobSpec{Policy: "hwc", Workload: "bwaves", Ratio: 1 << 20, MemoryTiers: threeTier}, false},
		{"scale below one segment per tier", JobSpec{Policy: "pom", Workload: "bwaves", Scale: 1 << 22}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := tc.spec.Normalize()
			if !tc.ok {
				if err == nil {
					t.Fatalf("normalized to %+v, want an error", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			o, err := n.SimOptions()
			if err != nil {
				t.Fatalf("normalized spec does not build: %v", err)
			}
			if err := o.Config.Validate(); err != nil {
				t.Fatalf("normalized spec builds an invalid machine: %v", err)
			}
		})
	}
}

// FuzzJobSpecNormalize: whatever a client submits, a spec that
// normalizes is a fixed point of Normalize with a stable hash, and a
// normalized sim spec always builds valid simulator options. Inputs
// naming a trace file are skipped, so the fuzzer never reads files.
func FuzzJobSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"policy":"pom","workload":"bwaves"}`,
		`{"policy":"chameleon","workload":"mcf","ratio":3,"scale":1024}`,
		`{"policy":"flat","workload":"lbm","baseline_gb":20,"ratio":-1}`,
		`{"policy":"pom","workload":"bwaves","ratio":1048576}`,
		`{"policy":"pom","workload":"bwaves","cache_levels":[{"Name":"L1","SizeBytes":32768,"Ways":4,"LineBytes":64,"LatencyCycles":4},{"Name":"LLC","SizeBytes":1048576,"Ways":16,"LineBytes":64,"LatencyCycles":30,"Shared":true}]}`,
		`{"kind":"matrix","workloads":["bwaves"],"policies":["pom"],"parallelism":-3}`,
		`{"kind":"dse","scale":512,"dse":{"policies":["pom","chameleon"],"workloads":["bwaves"],"ratios":[3,5]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.TracePath != "" || workload.IsReplay(spec.Workload) {
			return
		}
		n, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v fails to normalize again: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", n, again)
		}
		if again.Hash() != n.Hash() {
			t.Fatalf("hash moved on renormalizing: %s then %s", n.Hash(), again.Hash())
		}
		if n.Kind != KindSim {
			return
		}
		o, err := n.SimOptions()
		if err != nil {
			t.Fatalf("normalized sim spec %+v does not build options: %v", n, err)
		}
		if err := o.Config.Validate(); err != nil {
			t.Fatalf("normalized sim spec %+v builds an invalid machine: %v", n, err)
		}
	})
}
