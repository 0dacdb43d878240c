// Command chamd serves the chameleon simulator as a long-running
// service: an HTTP JSON API over a bounded worker pool with a
// content-addressed result cache and expvar metrics. Several chamd
// processes become a cluster with -peers: gossip membership, job
// routing over a consistent-hash ring, a cluster-wide result cache,
// and idle nodes taking queued jobs from loaded ones (a handed-over
// job is mirrored like a forwarded one). The cluster flags fill one
// cluster.Config; the resulting cluster.Cluster owns the membership,
// the failure detector and the ring, and is stopped on every exit.
//
// Usage:
//
//	chamd [-addr :8080] [-workers N] [-queue-depth 256]
//	      [-job-timeout 10m] [-cache-entries 1024] [-cache-bytes 268435456]
//	      [-shutdown-grace 30s]
//	      [-node-id ID] [-cluster-addr http://host:8080]
//	      [-peers http://host1:8080,http://host2:8080]
//	      [-gossip-interval 1s] [-suspicion-timeout 5s]
//
// Endpoints:
//
//	POST   /v1/jobs           submit a sim or matrix job
//	GET    /v1/jobs           list jobs
//	GET    /v1/jobs/{id}      status + live progress
//	GET    /v1/jobs/{id}/result  result JSON
//	DELETE /v1/jobs/{id}      cancel
//	GET    /v1/workloads      workload catalogue
//	GET    /healthz           liveness
//	GET    /debug/vars        metrics
//	/v1/cluster/*             peer protocol (clustered nodes only)
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops, queued
// jobs are canceled, and in-flight simulations get -shutdown-grace to
// finish before their run contexts are cut.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		depth   = flag.Int("queue-depth", 256, "bounded job-queue depth")
		timeout = flag.Duration("job-timeout", 10*time.Minute, "default per-job deadline")
		cacheN  = flag.Int("cache-entries", 1024, "result-cache capacity (entries)")
		cacheB  = flag.Int64("cache-bytes", 256<<20, "result-cache capacity (payload bytes; <0 = unbounded)")
		grace   = flag.Duration("shutdown-grace", 30*time.Second, "drain budget for in-flight jobs")

		nodeID    = flag.String("node-id", "", "cluster node name (default: host:port of -addr)")
		clAddr    = flag.String("cluster-addr", "", "base URL peers reach this node at (default: http://<addr>)")
		peers     = flag.String("peers", "", "comma-separated peer base URLs; non-empty enables clustering")
		gossipInt = flag.Duration("gossip-interval", time.Second, "gossip exchange period")
		suspicion = flag.Duration("suspicion-timeout", 5*time.Second, "time before an unresponsive node is declared dead")
	)
	flag.Parse()

	opts := server.Options{
		Workers:        *workers,
		QueueDepth:     *depth,
		DefaultTimeout: *timeout,
		CacheEntries:   *cacheN,
		CacheBytes:     *cacheB,
	}

	var cl *cluster.Cluster
	if *peers != "" || *nodeID != "" || *clAddr != "" {
		selfAddr := *clAddr
		if selfAddr == "" {
			selfAddr = "http://" + advertised(*addr)
		}
		id := *nodeID
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(selfAddr, "https://"), "http://")
		}
		var seeds []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				seeds = append(seeds, strings.TrimRight(p, "/"))
			}
		}
		cl = cluster.New(cluster.Config{
			NodeID:           id,
			Addr:             strings.TrimRight(selfAddr, "/"),
			Peers:            seeds,
			GossipInterval:   *gossipInt,
			SuspicionTimeout: *suspicion,
			Logf:             log.Printf,
		})
		opts.Cluster = cl
		log.Printf("chamd: clustering as %s (%s), %d seed peer(s)", id, selfAddr, len(seeds))
	}

	if err := run(*addr, opts, cl, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "chamd:", err)
		os.Exit(1)
	}
}

// advertised turns a listen address into something peers can dial:
// ":8080" has no host, so fall back to the machine's hostname.
func advertised(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if h, err := os.Hostname(); err == nil {
			host = h
		} else {
			host = "localhost"
		}
	}
	return net.JoinHostPort(host, port)
}

func run(addr string, opts server.Options, cl *cluster.Cluster, grace time.Duration) error {
	srv := server.New(opts)
	srv.Metrics().PublishExpvar()

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("chamd: serving on %s", addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	if cl != nil {
		cl.Start()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		if cl != nil {
			cl.Stop()
		}
		return err
	case sig := <-sigCh:
		log.Printf("chamd: %s, draining (grace %s)", sig, grace)
	}

	if cl != nil {
		cl.Stop() // stop gossiping first: peers will route around us
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	// Stop accepting connections and drain the job pool together: the
	// drain releases held status reads (?wait=), which the HTTP
	// shutdown would otherwise wait out.
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	httpErr := httpSrv.Shutdown(ctx)
	drainErr := <-drained
	if drainErr != nil {
		log.Printf("chamd: drain cut short: %v", drainErr)
	}
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		return httpErr
	}
	log.Printf("chamd: stopped")
	return nil
}
