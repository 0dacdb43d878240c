package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/experiments"
	"chameleon/internal/workload"
)

// TestSpecMachineValidation: a sim spec is accepted only when its
// scale and ratio build a valid machine. A negative ratio would
// otherwise normalize, be ignored by Cell.Options and split the result
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
			o, err := n.Cell().Options()
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
		o, err := n.Cell().Options()
		if err != nil {
			t.Fatalf("normalized sim spec %+v does not build options: %v", n, err)
		}
		if err := o.Config.Validate(); err != nil {
			t.Fatalf("normalized sim spec %+v builds an invalid machine: %v", n, err)
		}
	})
}

// TestSimSpecRoundTrip: a normalized cell sent to its ring owner as the
// sim job its JSON spells decodes strictly and normalizes back to the
// same cell, so the owner keys and simulates exactly what the sender
// would have.
func TestSimSpecRoundTrip(t *testing.T) {
	levels := config.Default(1024).CacheLevels[:2]
	for _, c := range []experiments.Cell{
		{Policy: "flat", BaselineGB: 20, Workload: "mcf", Scale: 1024, Ratio: 3, Seed: 5, Instructions: 1000, Warmup: 1},
		{Policy: "chameleon-opt", Workload: "bwaves", Scale: 256, Ratio: 5, Seed: 42, Instructions: 1000, Warmup: 7},
		{Policy: "pom", Workload: "lbm", Scale: 512, Seed: 9, Instructions: 10, Warmup: 4_000_000, CacheLevels: levels},
	} {
		c, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("cell JSON %s is not a job spec: %v", b, err)
		}
		n, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(n.Cell(), c) || n.Hash() != c.Hash() {
			t.Errorf("cell %+v came back from its sim spec as %+v", c, n.Cell())
		}
	}
	// A ratio that keeps the machine's tier split is the machine's own.
	five, err := JobSpec{Policy: "pom", Workload: "bwaves", Ratio: 5}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	unset, err := JobSpec{Policy: "pom", Workload: "bwaves"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if five.Hash() != unset.Hash() {
		t.Errorf("ratio 5 on the default 4+20 GB machine hashes apart from no ratio")
	}
}
