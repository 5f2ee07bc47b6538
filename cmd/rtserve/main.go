// Command rtserve runs the resource-time tradeoff solving service: a
// long-running HTTP/JSON server over the unified solver registry, with a
// bound on concurrent solves (-workers), a compiled-instance cache so hot
// DAGs decode and compile once, and a canonical-hash result cache so
// repeated instances never recompute.
//
//	rtserve -addr :8080 -workers 8 -cache 4096 -compiled 512
//
// Cluster mode joins a static fleet that solves each distinct instance
// once cluster-wide (requests are routed to an owner node by rendezvous
// hashing over the canonical instance hash; an unreachable owner
// degrades to a local solve):
//
//	rtserve -addr :8080 -self http://node1:8080 \
//	  -peers http://node1:8080,http://node2:8080,http://node3:8080
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/solvers
//	curl -X POST localhost:8080/v1/solve \
//	  -d '{"solver":"auto","options":{"budget":6},"instance":'"$(rtgen -kind step)"'}'
//
// Batches go under {"batch": [...]}; duplicated instances inside a batch
// are solved once and served from the cache.  GET /v1/stats reports cache
// hit/miss/coalesce counters, solve-pool utilization and job activity.
//
// Long solves go through the async job API instead: POST /v1/jobs returns
// 202 with a job id immediately, GET /v1/jobs/{id} polls, and GET
// /v1/jobs/{id}/events streams the live incumbent/bound/gap trajectory as
// Server-Sent Events.  GET or POST /v1/frontier sweeps a budget range and
// returns the resource-time tradeoff curve, each point warm-started from
// its neighbor.  See docs/API.md for the full reference.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtserve: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent solves (0: GOMAXPROCS)")
	cache := flag.Int("cache", 0, "result-cache entries (0: 1024 default, -1: disable)")
	compiled := flag.Int("compiled", 0, "compiled-instance cache entries; each entry retains a few times its instance's wire size (0: 512 default, -1: disable)")
	maxBody := flag.Int64("maxbody", 0, "request body cap in bytes (0: 8 MiB default)")
	storeDir := flag.String("store", "", "durable solve store directory (empty: in-memory only)")
	retainJobs := flag.Int("jobs", 0, "finished async jobs retained for polling (0: 256 default, -1: none)")
	self := flag.String("self", "", "this node's base URL in cluster mode (scheme://host:port)")
	peers := flag.String("peers", "", "comma-separated peer base URLs; with -self, enables cluster mode")
	flag.Parse()

	cfg := service.Config{
		Workers:         *workers,
		CacheEntries:    *cache,
		CompiledEntries: *compiled,
		MaxBodyBytes:    *maxBody,
		StoreDir:        *storeDir,
		RetainJobs:      *retainJobs,
		Self:            *self,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *self != "" {
		log.Printf("cluster mode: self %s, %d peers", *self, len(cfg.Peers))
	}
	if lr, ok := svc.StoreLoad(); ok {
		log.Printf("store %s: %d reports, %d instances loaded; %d corrupt, %d foreign-format skipped",
			*storeDir, lr.Reports, lr.Instances, lr.Corrupt, lr.Skipped)
		for _, e := range lr.Errors {
			log.Printf("store: skipped entry: %s", e)
		}
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	svc.Close()
}
