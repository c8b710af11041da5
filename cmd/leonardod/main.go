// Command leonardod is the evolution-as-a-service daemon: it hosts
// many concurrent evolution runs — single-population GAP, island
// archipelago, and gate-level circuit — behind an HTTP JSON API, with
// FIFO admission against a bounded worker pool, periodic checkpointing
// to a spool directory, and crash-safe resume of every in-flight run at
// startup.
//
// Usage:
//
//	leonardod [-addr HOST:PORT] [-spool DIR] [-workers N]
//	          [-queue-depth N] [-snapshot-every N]
//	          [-gait-cache N] [-event-buffer N]
//	          [-node-id ID -peers ID=URL,ID=URL,... [-epoch-timeout D]]
//
// API (see DESIGN.md §10, §12, and §15 and the README "Serving",
// "Multi-node", and "Querying gaits" sections):
//
//	POST /v1/runs               submit a run spec
//	GET  /v1/runs               list the registry (?limit=&after= paginates)
//	GET  /v1/runs/{id}          live generation / best fitness
//	POST /v1/runs/{id}/cancel   cancel a run
//	GET  /v1/runs/{id}/snapshot latest checkpoint (binary; ETag/304)
//	GET  /v1/runs/{id}/events   progress stream (Server-Sent Events)
//	GET  /v1/gaits              gait lookup / archive listing
//	POST /v1/migrate            peer-to-peer migration batches
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition
//
// GET /v1/gaits?run=ID&heading=RAD&stride=MM serves the gait of the
// repertoire cell the query bins into, straight from an in-memory
// decoded-archive cache (-gait-cache bounds how many archives stay
// decoded); snapshots live in a content-addressed store under
// <spool>/store. GET /v1/runs/{id}/events pushes per-generation
// progress; -event-buffer bounds how far back a late subscriber can
// replay.
//
// -node-id and -peers join the daemon to a fleet: K nodes sharding one
// island archipelago, exchanging champions over POST /v1/migrate at
// every epoch barrier (DESIGN.md §12). Every node must be started with
// the same -peers set (its own id included) and receive the same
// "cluster" run spec.
//
// On SIGINT/SIGTERM the daemon stops accepting requests, cancels every
// active run at its next generation boundary, writes a final checkpoint
// for each, and exits; the next start on the same -spool resumes them
// on their exact trajectories.
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

	"leonardo/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so idle or trickling connections cannot pin server
// goroutines.
const readHeaderTimeout = 10 * time.Second

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address (port 0 picks a free port)")
	spool := flag.String("spool", "leonardod-spool", "checkpoint directory (empty disables persistence)")
	workers := flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS); admitted runs beyond this queue")
	queueDepth := flag.Int("queue-depth", 64, "queued runs beyond which submissions get 429")
	snapshotEvery := flag.Int("snapshot-every", 50, "checkpoint stride in engine steps")
	gaitCache := flag.Int("gait-cache", 0, "decoded gait archives kept in memory (0 = 64)")
	eventBuffer := flag.Int("event-buffer", 0, "SSE progress events retained per run for replay (0 = 256)")
	nodeID := flag.String("node-id", "", "this node's id in a leonardod fleet (requires -peers)")
	peers := flag.String("peers", "", "fleet registry as id=url,id=url,... including this node")
	epochTimeout := flag.Duration("epoch-timeout", 0, "epoch barrier timeout before degrading to no-migration (0 = 30s)")
	flag.Parse()

	logger := log.New(os.Stderr, "leonardod: ", log.LstdFlags)
	clusterCfg, err := clusterConfig(*nodeID, *peers, *epochTimeout)
	if err != nil {
		logger.Print(err)
		return 2
	}
	m, err := serve.New(serve.Config{
		Spool:         *spool,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		SnapshotEvery: *snapshotEvery,
		GaitCache:     *gaitCache,
		EventBuffer:   *eventBuffer,
		Logf:          logger.Printf,
		Cluster:       clusterCfg,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		m.Close()
		return 1
	}
	// The resolved address line is load-bearing: with -addr :0 it is how
	// scripts (and the CI smoke test) discover the port.
	logger.Printf("listening on http://%s (spool %q)", ln.Addr(), *spool)

	// Only the header read is bounded: run event streams (SSE) stay
	// open for a run's whole life, so there is no read or write timeout.
	srv := &http.Server{Handler: serve.NewAPI(m), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Print(err)
		m.Close()
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process instead of being swallowed
	logger.Print("shutting down: checkpointing active runs")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Print(err)
	}
	m.Close()
	logger.Print("all runs checkpointed; bye")
	return 0
}

// clusterConfig parses -node-id/-peers/-epoch-timeout into a
// serve.ClusterConfig; both flags empty means a standalone node.
func clusterConfig(nodeID, peers string, epochTimeout time.Duration) (*serve.ClusterConfig, error) {
	if nodeID == "" && peers == "" {
		return nil, nil
	}
	if nodeID == "" || peers == "" {
		return nil, errors.New("-node-id and -peers must be set together")
	}
	reg := make(map[string]string)
	for _, ent := range strings.Split(peers, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=url", ent)
		}
		if _, dup := reg[id]; dup {
			return nil, fmt.Errorf("-peers names node %q twice", id)
		}
		reg[id] = url
	}
	return &serve.ClusterConfig{NodeID: nodeID, Peers: reg, EpochTimeout: epochTimeout}, nil
}
