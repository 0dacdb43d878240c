package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/experiments"
	"chameleon/internal/policy"
	"chameleon/internal/sim"
	"chameleon/internal/workload"
)

// registerToy registers a minimal custom design exactly the way client
// code would: one Register call, no edits to sim, server or either CLI.
// It is a flat system that statically splits the OS-visible space
// across both devices.
var registerToy = sync.OnceFunc(func() {
	policy.Register("toy", policy.Descriptor{
		Build: func(bc policy.BuildContext) (policy.Controller, error) {
			return policy.NewFlat("toy", bc.Tiers[0].Mem, bc.Tiers[1].Mem,
				bc.Config.TierCapacity(0), bc.Config.TotalCapacity()), nil
		},
	})
})

// TestToyPolicyEndToEnd is the registry's acceptance test: a design
// registered by test code alone must run through the simulator, the
// experiments matrix and a server job, purely by name.
func TestToyPolicyEndToEnd(t *testing.T) {
	registerToy()
	const scale = 1024

	// Direct simulation.
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.Options{
		Config:   config.Default(scale),
		Policy:   "toy",
		Workload: prof.Scale(scale),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "toy" {
		t.Fatalf("result policy = %q, want toy", res.Policy)
	}
	if res.Snapshot()["ctrl.accesses"] == 0 {
		t.Fatal("toy controller saw no traffic")
	}

	// Experiments matrix restricted to the toy design.
	m, err := experiments.RunMatrix(experiments.Options{
		Scale:        scale,
		Instructions: 5_000,
		Warmup:       1,
		Workloads:    []string{"bwaves"},
		Policies:     []sim.PolicyKind{"toy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Results["toy"]["bwaves"] == nil {
		t.Fatalf("matrix missing toy/bwaves cell: %+v", m.Results)
	}
	if v := m.Metric("toy", "bwaves", "ipc_geomean"); v <= 0 {
		t.Fatalf("toy matrix IPC = %v, want > 0", v)
	}

	// Server job, by wire name.
	s := newTestServer(t, Options{Workers: 1})
	j, err := s.Submit(JobSpec{
		Kind: KindSim, Policy: "toy", Workload: "bwaves",
		Scale: scale, Instructions: 5_000, Warmup: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("toy job state = %s (err %q), want done", st.State, st.Error)
	}
	body, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Policy != "toy" {
		t.Fatalf("served policy = %q, want toy", got.Policy)
	}
}

// TestUnknownPolicy400EchoesValidSet: the API's rejection of an unknown
// policy must list the registered names, so clients can self-correct.
func TestUnknownPolicy400EchoesValidSet(t *testing.T) {
	registerToy()
	_, ts, _ := newHTTPServer(t, Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"policy":"no-such-design","workload":"bwaves"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range append(policy.Names(), "no-such-design") {
		if !strings.Contains(string(b), want) {
			t.Errorf("400 body %q does not mention %q", b, want)
		}
	}

	// Matrix jobs validate their policy list the same way.
	srv := newTestServer(t, Options{Workers: 1})
	if _, err := srv.Submit(JobSpec{Kind: KindMatrix, Policies: []string{"no-such-design"}}); err == nil ||
		!strings.Contains(err.Error(), "toy") {
		t.Fatalf("matrix submit error %v must reject and list registered names", err)
	}
}
