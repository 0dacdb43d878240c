package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"chameleon/internal/dse"
	"chameleon/internal/experiments"
)

// fastDSESpec is a small real sweep (2 policies × 2 workloads × 2
// seeds = 8 cells) sized to simulate in well under a second per cell.
func fastDSESpec() JobSpec {
	return JobSpec{
		Kind:         KindDSE,
		Scale:        1024,
		Instructions: 2_000,
		Warmup:       1,
		DSE: &dse.Spec{
			Policies:  []string{"chameleon-opt", "alloy"},
			Workloads: []string{"bwaves", "mcf"},
			Seeds:     []uint64{3, 4},
		},
	}
}

func runDSEJob(t *testing.T, s *Server, spec JobSpec) (*Job, *dse.Result) {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	b, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var res dse.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("decode dse result: %v", err)
	}
	return j, &res
}

func TestDSEJobEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	j, res := runDSEJob(t, s, fastDSESpec())

	if res.TotalCells != 8 || res.Evaluated != 8 || res.Pruned != 0 {
		t.Fatalf("accounting: total %d evaluated %d pruned %d", res.TotalCells, res.Evaluated, res.Pruned)
	}
	if len(res.Front) == 0 || len(res.Front)+res.Dominated != len(res.Points) {
		t.Fatalf("front %d + dominated %d != points %d", len(res.Front), res.Dominated, len(res.Points))
	}
	for _, p := range res.Points {
		if p.Hash == "" {
			t.Fatalf("cell %d has no provenance hash", p.Cell.Index)
		}
		// Property: no front member is dominated by any evaluated cell.
		for _, f := range res.Front {
			if dse.Dominates(p.Values, f.Values, res.Objectives) {
				t.Fatalf("front cell %d dominated by cell %d", f.Cell.Index, p.Cell.Index)
			}
		}
	}
	st := j.Status()
	if st.Progress.DoneCells != 8 || st.Progress.TotalCells != 8 {
		t.Errorf("final progress = %+v, want 8/8 cells", st.Progress)
	}
	if got := s.Metrics().DSECellsSimulated.Value(); got != 8 {
		t.Errorf("dse_cells_simulated = %d, want 8", got)
	}
}

// TestDSEJobMatchesInProcessSweep: a sweep run in process
// (experiments.RunDSE) and the same sweep run as a chamd dse job must
// agree on every point, its cell hash included.
func TestDSEJobMatchesInProcessSweep(t *testing.T) {
	spec := fastDSESpec()
	spec.DSE.Policies = []string{"flat", "chameleon-opt", "pom"}
	spec.DSE.Ratios = []int{3, 7}
	local, err := experiments.RunDSE(context.Background(), experiments.Options{
		Scale: spec.Scale, Instructions: spec.Instructions, Warmup: spec.Warmup, Parallelism: 2,
	}, *spec.DSE)
	if err != nil {
		t.Fatal(err)
	}
	_, served := runDSEJob(t, newTestServer(t, Options{Workers: 1}), spec)
	if len(local.Points) != 24 || len(served.Points) != len(local.Points) {
		t.Fatalf("points: in process %d, served %d, want 24 each", len(local.Points), len(served.Points))
	}
	for i, lp := range local.Points {
		sp := served.Points[i]
		if lp.Cell != sp.Cell || !reflect.DeepEqual(lp.Values, sp.Values) {
			t.Errorf("point %d: in process %+v %v, served %+v %v", i, lp.Cell, lp.Values, sp.Cell, sp.Values)
		}
		if lp.Hash == "" || lp.Hash != sp.Hash {
			t.Errorf("point %d: in process hash %q, served %q, want one non-empty hash", i, lp.Hash, sp.Hash)
		}
	}
}

// TestDSERepeatSubmissionServedFromCache covers both cache layers: an
// identical resubmission is a whole-job cache hit, and a resubmission
// with different objectives (different sweep hash, same cell hashes)
// serves 100% ≥ 95% of cells from the content-addressed cache.
func TestDSERepeatSubmissionServedFromCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	_, first := runDSEJob(t, s, fastDSESpec())
	if first.Cached != 0 {
		t.Fatalf("first run served %d cells from cache, want 0", first.Cached)
	}

	j2, err := s.Submit(fastDSESpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2, 10*time.Second); !st.Cached {
		t.Fatalf("identical resubmission not a whole-job cache hit (state %s)", st.State)
	}

	changed := fastDSESpec()
	changed.DSE.Objectives = []dse.Objective{
		{Key: "ipc_geomean", Sense: dse.SenseMax},
		{Key: "amat_cycles", Sense: dse.SenseMin},
	}
	_, third := runDSEJob(t, s, changed)
	if third.Cached < third.TotalCells*95/100 || third.Cached != third.TotalCells {
		t.Fatalf("changed-objective resweep served %d/%d cells from cache, want all (≥95%% required)",
			third.Cached, third.TotalCells)
	}
	if sim := s.Metrics().DSECellsSimulated.Value(); sim != 8 {
		t.Errorf("dse_cells_simulated = %d after resweep, want 8 (no recomputation)", sim)
	}
}

// TestDSEFrontDeterministicAcrossThreads runs the same sweep on two
// separate servers (separate caches, so the second run cannot be served
// from the first's) with one and with four cells in flight, requiring
// byte-identical front JSON.
func TestDSEFrontDeterministicAcrossThreads(t *testing.T) {
	spec1 := fastDSESpec()
	spec1.Parallelism = 1
	s1 := newTestServer(t, Options{Workers: 1})
	_, r1 := runDSEJob(t, s1, spec1)

	spec2 := fastDSESpec()
	spec2.Parallelism = 4
	s2 := newTestServer(t, Options{Workers: 1})
	_, r2 := runDSEJob(t, s2, spec2)

	if sig1, sig2 := r1.FrontSignature(), r2.FrontSignature(); sig1 != sig2 {
		t.Errorf("front differs across cell parallelism:\n1 cell:  %s\n4 cells: %s", sig1, sig2)
	}
}

func TestDSESpecNormalization(t *testing.T) {
	t.Run("requires sweep spec", func(t *testing.T) {
		if _, err := (JobSpec{Kind: KindDSE}).Normalize(); err == nil || !strings.Contains(err.Error(), "dse sweep spec") {
			t.Errorf("Normalize = %v", err)
		}
	})
	t.Run("scale and seed seed the axes", func(t *testing.T) {
		a, err := (JobSpec{Kind: KindDSE, Scale: 512, Seed: 7, DSE: &dse.Spec{}}).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := (JobSpec{Kind: KindDSE, DSE: &dse.Spec{Scales: []uint64{512}, Seeds: []uint64{7}}}).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash() != b.Hash() {
			t.Error("top-level scale/seed spelling hashes differently from the axis spelling")
		}
	})
	t.Run("sim spec clears dse", func(t *testing.T) {
		sp := fastSpec(1)
		sp.DSE = &dse.Spec{}
		n, err := sp.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if n.DSE != nil {
			t.Error("sim normalization kept the dse field")
		}
	})
	t.Run("cell cap", func(t *testing.T) {
		seeds := make([]uint64, 200)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		sp := JobSpec{Kind: KindDSE, DSE: &dse.Spec{Seeds: seeds}} // 7×14×200 = 19600 cells
		if _, err := sp.Normalize(); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("Normalize = %v, want cell-cap error", err)
		}
	})
}

// dseOwnerNode returns the node owning hash, so tests can submit a
// sweep where it will run (avoiding the remote-mirror machinery).
func dseOwnerNode(t *testing.T, nodes []*clusterNode, hash string) *clusterNode {
	t.Helper()
	owners := nodes[0].cl.Ring().Owners(hash, replication)
	if len(owners) == 0 {
		t.Fatal("empty ring")
	}
	for _, nd := range nodes {
		if nd.id == owners[0] {
			return nd
		}
	}
	t.Fatalf("owner %s not in the test cluster", owners[0])
	return nil
}

// TestClusterDSEShardsCellsAndReusesCache is the cluster acceptance
// test: a sweep's cells route through the ring (total simulation work
// equals the cell count, wherever cells ran), and a second sweep over
// the same cells — submitted to a different hash owner with different
// objectives — is served entirely from the cluster-wide cell cache.
func TestClusterDSEShardsCellsAndReusesCache(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)

	// Total simulation work across the cluster: cells simulated inline
	// by a sweep runner plus jobs completed through a pool — remote
	// cells run on their owner as plain sim jobs — minus the sweep jobs
	// themselves (dseJobs counts completed sweeps).
	sumWork := func(dseJobs int64) int64 {
		var n int64
		for _, nd := range nodes {
			n += nd.s.Metrics().DSECellsSimulated.Value()
		}
		return n + sumJobsDone(nodes) - dseJobs
	}

	spec := fastDSESpec()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	first := dseOwnerNode(t, nodes, norm.Hash())
	j, res := runDSEJob(t, first.s, spec)
	_ = j
	if res.Evaluated != 8 || res.Cached != 0 {
		t.Fatalf("first sweep: evaluated %d cached %d, want 8/0", res.Evaluated, res.Cached)
	}
	if got := sumWork(1); got != 8 {
		t.Fatalf("cluster simulated %d cells for an 8-cell sweep, want exactly 8", got)
	}
	t.Logf("first sweep on %s: %d cells simulated remotely", first.id,
		first.s.Metrics().DSECellsRemote.Value())

	changed := fastDSESpec()
	changed.DSE.Objectives = []dse.Objective{
		{Key: "ipc_geomean", Sense: dse.SenseMax},
		{Key: "amat_cycles", Sense: dse.SenseMin},
	}
	norm2, err := changed.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	second := dseOwnerNode(t, nodes, norm2.Hash())
	_, res2 := runDSEJob(t, second.s, changed)
	if res2.Cached != res2.TotalCells {
		t.Fatalf("resweep on %s served %d/%d cells from the cluster cache, want all",
			second.id, res2.Cached, res2.TotalCells)
	}
	if got := sumWork(2); got != 8 {
		t.Fatalf("cluster simulated %d cells after the resweep, want still 8", got)
	}
}

// TestClusterMatrixShardsCells: a matrix job's cells route through the
// ring like a sweep's, and the payload is byte-identical to one
// computed by a standalone server: a cell run on its ring owner as a
// sim job returns the bytes of a local simulation.
func TestClusterMatrixShardsCells(t *testing.T) {
	nodes := newServerCluster(t, 3, newFakeClock(), nil)
	converge(t, nodes)
	spec := JobSpec{Kind: KindMatrix, Workloads: []string{"bwaves"},
		Scale: 1024, Instructions: 5_000, Warmup: 1, Seed: 11}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	runner := dseOwnerNode(t, nodes, norm.Hash())
	j, err := runner.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 120*time.Second); st.State != StateDone {
		t.Fatalf("matrix job: state %s (err %q)", st.State, st.Error)
	}
	clustered, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	remote := runner.s.Metrics().DSECellsRemote.Value()
	if remote == 0 {
		t.Errorf("%s ran all 8 matrix cells itself, want the ring to shard them", runner.id)
	}
	if got := remote + runner.s.Metrics().DSECellsSimulated.Value(); got != 8 {
		t.Errorf("%s resolved %d of 8 cells by simulation, want every cell", runner.id, got)
	}
	_, standalone := runMatrixJob(t, newTestServer(t, Options{Workers: 1}), "bwaves")
	if !bytes.Equal(clustered, standalone) {
		t.Errorf("clustered matrix payload differs from a standalone server's")
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	c := NewClient(srv.URL)
	infos, err := c.Policies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyInfo{}
	for _, pi := range infos {
		byName[pi.Name] = pi
	}
	if pi, ok := byName["hwc"]; !ok || pi.RequiredTiers < 3 {
		t.Errorf("hwc descriptor = %+v (listed %v), want required_tiers >= 3", pi, ok)
	}
	if pi, ok := byName["flat"]; !ok || !pi.RequiresBaseline {
		t.Errorf("flat descriptor = %+v (listed %v), want requires_baseline", pi, ok)
	}
	if pi, ok := byName["chameleon"]; !ok || pi.RequiredTiers != 2 || pi.RequiresBaseline {
		t.Errorf("chameleon descriptor = %+v (listed %v)", pi, ok)
	}
}

// TestSubmitBodyLimit checks both sides of the raised submission
// limit: a multi-megabyte DSE spec decodes fine, and an oversized body
// gets a structured 413, not a bare decode error.
func TestSubmitBodyLimit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A body that tops the old 1 MiB limit: whitespace inside the JSON
	// object, so the decoder must read through all of it. A tiny sweep
	// keeps the accepted job cheap.
	small := fastDSESpec()
	small.DSE.Policies = []string{"chameleon-opt"}
	small.DSE.Workloads = []string{"bwaves"}
	small.DSE.Seeds = []uint64{3}
	b, err := json.Marshal(small)
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte(" "), 2<<20)
	body := append(append(b[:len(b)-1:len(b)-1], pad...), '}')
	resp := post(body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("2 MiB spec rejected with %d, want 202", resp.StatusCode)
	}

	resp2 := post(bytes.Repeat([]byte(" "), maxSubmitBytes+1))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got %d, want 413", resp2.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp2.Body).Decode(&apiErr); err != nil || !strings.Contains(apiErr.Error, "exceeds") {
		t.Fatalf("413 body = %+v (decode err %v), want structured JSON error", apiErr, err)
	}
}
