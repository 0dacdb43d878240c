package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"chameleon/internal/cluster"
)

// skewedBatch is the load-balance batch: 4 mcf and 8 miniGhost
// chameleon-opt jobs at scale 256 and the default budgets. An mcf job
// costs about 7× a miniGhost one, so where the jobs land decides the
// makespan.
func skewedBatch() []JobSpec {
	specs := make([]JobSpec, 12)
	for k := range specs {
		w := "miniGhost"
		if k < 4 {
			w = "mcf"
		}
		specs[k] = JobSpec{Kind: KindSim, Policy: "chameleon-opt", Workload: w, Scale: 256, Seed: uint64(k + 1)}
	}
	return specs
}

// BenchmarkClusterSkewedBatch times the makespan of skewedBatch, all
// submitted through one node of a fresh three-node cluster with one
// worker per node, real HTTP, gossip and the background cluster loops
// (ring routing, work stealing, the dead-node sweep). Each iteration
// builds a new cluster, so every run starts with cold caches.
//
//	go test -run '^$' -bench ClusterSkewedBatch -benchtime 1x ./internal/server
func BenchmarkClusterSkewedBatch(b *testing.B) {
	specs := skewedBatch()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nodes := startBenchCluster(b, 3)
		b.StartTimer()
		start := time.Now()
		jobs := make([]*Job, len(specs))
		for k, spec := range specs {
			j, err := nodes[0].s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			jobs[k] = j
		}
		for _, j := range jobs {
			<-j.Done()
			if st := j.Status(); st.State != StateDone {
				b.Fatalf("job %s ended %s: %s", j.ID, st.State, st.Error)
			}
		}
		makespan := time.Since(start)
		b.StopTimer()
		var stolen int64
		for _, nd := range nodes {
			stolen += nd.s.Metrics().JobsStolen.Value()
		}
		b.ReportMetric(makespan.Seconds(), "makespan_s")
		b.ReportMetric(float64(stolen), "stolen")
		stopBenchCluster(nodes)
	}
}

// startBenchCluster starts n single-worker nodes with gossip and the
// cluster loops running, and waits until every node sees the full ring.
func startBenchCluster(b *testing.B, n int) []*clusterNode {
	b.Helper()
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &clusterNode{id: fmt.Sprintf("node-%c", 'a'+i), srv: srv, addr: "http://" + srv.Listener.Addr().String()}
	}
	for i, nd := range nodes {
		var seeds []string
		if i > 0 {
			seeds = []string{nodes[0].addr}
		}
		nd.cl = cluster.New(cluster.Config{NodeID: nd.id, Addr: nd.addr, Peers: seeds})
		nd.s = New(Options{Workers: 1, Cluster: nd.cl})
		nd.srv.Config.Handler = nd.s.Handler()
		nd.srv.Start()
	}
	converge(b, nodes)
	for _, nd := range nodes {
		nd.cl.Start()
	}
	return nodes
}

func stopBenchCluster(nodes []*clusterNode) {
	for _, nd := range nodes {
		nd.cl.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_ = nd.s.Shutdown(ctx)
		cancel()
		nd.srv.Close()
	}
}
