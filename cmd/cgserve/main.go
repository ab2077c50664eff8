// Command cgserve is the network solve server: the HTTP JSON API of
// the server package as a daemon. Operators are uploaded once (CSR,
// COO, or MatrixMarket wire formats), then served to any number of
// concurrent clients from warm solve.Session pools with bounded-queue
// backpressure and per-request deadlines. docs/api.md documents every
// endpoint with curl examples.
//
//	cgserve -addr :8080
//	cgserve -addr :8080 -max-concurrent 8 -max-queue 32 -timeout 10s
//	cgserve -addr :8080 -preload poisson2d:64   # boot with a demo operator
//
// The same binary is also both halves of the distributed tier. A
// worker process holds operator shards and runs its piece of each
// distributed solve; a coordinator shards uploads across a fleet of
// workers and exposes them through /v1/cluster/*:
//
//	cgserve -worker-listen 127.0.0.1:9001             # worker (no HTTP)
//	cgserve -worker-listen 127.0.0.1:9002             # worker (no HTTP)
//	cgserve -addr :8080 -fleet 127.0.0.1:9001,127.0.0.1:9002
//
// A quick smoke test against a running server:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/methods
//	curl localhost:8080/v1/cluster/workers   # coordinator mode only
//
// SIGINT/SIGTERM shut the server down gracefully: new requests get
// 503, in-flight solves drain (bounded by -timeout), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vrcg/cluster"
	"vrcg/internal/vec"
	"vrcg/server"
	"vrcg/sparse"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "solves allowed to run at once (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "solve requests allowed to wait beyond -max-concurrent; excess gets 429 (0 = 4x max-concurrent)")
	maxOperators := flag.Int("max-operators", 32, "operator store capacity (LRU eviction past it)")
	maxSessionPools := flag.Int("max-session-pools", 64, "warm-session pool cap across request shapes (oldest dropped past it)")
	maxOrder := flag.Int("max-order", 1<<22, "largest operator order accepted by uploads")
	maxBodyMB := flag.Int("max-body-mb", 256, "largest request body in MiB (operator uploads and wide binary batches dominate)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-solve deadline ceiling (requests can only shorten it)")
	engineWorkers := flag.Int("engine-workers", 1, "worker-pool width for solver kernels; 1 = serial kernels, best for many concurrent clients")
	preload := flag.String("preload", "", "preload a generated operator, e.g. poisson2d:64 (also poisson1d, poisson3d)")
	workerListen := flag.String("worker-listen", "", "run as a cluster worker on this address (no HTTP API); coordinator connects here")
	fleet := flag.String("fleet", "", "run as a cluster coordinator over these comma-separated worker addresses; enables /v1/cluster/*")
	flag.Parse()

	if *workerListen != "" {
		runWorker(*workerListen)
		return
	}

	cfg := server.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		MaxOperators:    *maxOperators,
		MaxSessionPools: *maxSessionPools,
		MaxOrder:        *maxOrder,
		MaxBodyBytes:    int64(*maxBodyMB) << 20,
		DefaultTimeout:  *timeout,
	}
	if *engineWorkers > 1 {
		// The pool decides per call, from the input size against fixed
		// cutoffs, whether a kernel runs on its workers; nothing to tune.
		cfg.EnginePool = sparse.NewPool(*engineWorkers)
	}
	var coord *cluster.Coordinator
	if *fleet != "" {
		var err error
		coord, err = dialFleet(*fleet)
		if err != nil {
			log.Fatalf("cgserve: -fleet: %v", err)
		}
		defer coord.Close()
		cfg.Cluster = coord
	}
	srv := server.New(cfg)

	if *preload != "" {
		id, n, err := preloadOperator(srv, *preload)
		if err != nil {
			log.Fatalf("cgserve: -preload %q: %v", *preload, err)
		}
		log.Printf("cgserve: preloaded operator %q (n=%d)", id, n)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("cgserve: serving on %s (%s leaf kernels)", *addr, vec.Kernels())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("cgserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("cgserve: shutting down")
	drain, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drain); err != nil {
		log.Printf("cgserve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(drain); err != nil {
		log.Printf("cgserve: %v", err)
	}
}

// runWorker runs the process as a passive cluster worker: it serves
// the coordinator's control connection and peer halo traffic on addr
// until SIGINT/SIGTERM.
func runWorker(addr string) {
	w, err := cluster.NewWorker(cluster.WorkerConfig{Addr: addr, Logf: log.Printf})
	if err != nil {
		log.Fatalf("cgserve: -worker-listen %q: %v", addr, err)
	}
	log.Printf("cgserve: cluster worker on %s (%s leaf kernels)", w.Addr(), vec.Kernels())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("cgserve: worker shutting down")
	w.Close()
}

// dialFleet builds a coordinator over the comma-separated worker
// addresses, retrying each for a while so the fleet can boot in any
// order (workers typically start in parallel with the coordinator).
func dialFleet(spec string) (*cluster.Coordinator, error) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Logf: log.Printf})
	for _, addr := range strings.Split(spec, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		var (
			id  string
			err error
		)
		deadline := time.Now().Add(15 * time.Second)
		for {
			id, err = coord.AddWorker(addr)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
		if err != nil {
			coord.Close()
			return nil, fmt.Errorf("worker %s: %w", addr, err)
		}
		log.Printf("cgserve: fleet worker %s at %s", id, addr)
	}
	if len(coord.Workers()) == 0 {
		coord.Close()
		return nil, errors.New("no workers in -fleet")
	}
	return coord, nil
}

// preloadOperator parses "<problem>:<m>" and installs the generated
// operator under the problem name, so a fresh server is demo-ready
// without an upload step.
func preloadOperator(srv *server.Server, spec string) (string, int, error) {
	name, sizeStr, ok := strings.Cut(spec, ":")
	if !ok {
		return "", 0, errors.New(`want "<problem>:<size>"`)
	}
	m, err := strconv.Atoi(sizeStr)
	if err != nil || m <= 0 {
		return "", 0, fmt.Errorf("bad size %q", sizeStr)
	}
	var a *sparse.CSR
	switch name {
	case "poisson1d":
		a = sparse.Poisson1D(m)
	case "poisson2d":
		a = sparse.Poisson2D(m)
	case "poisson3d":
		a = sparse.Poisson3D(m)
	default:
		return "", 0, fmt.Errorf("unknown problem %q (want poisson1d|poisson2d|poisson3d)", name)
	}
	if err := srv.Preload(name, a); err != nil {
		return "", 0, err
	}
	return name, a.Dim(), nil
}
