// Command ares-server runs one ARES server process over TCP — the unit of a
// local multi-process deployment.
//
// Usage:
//
//	ares-server -id s1 -listen 127.0.0.1:7001 \
//	  -peers "s1=127.0.0.1:7001,s2=127.0.0.1:7002,s3=127.0.0.1:7003" \
//	  -bootstrap "id=c0;alg=treas;servers=s1,s2,s3;k=2;delta=4"
//
// The -bootstrap flag installs the initial configuration locally; later
// configurations are provisioned remotely by reconfiguration clients through
// the control service. Omit -bootstrap for spare servers that will join
// through a future reconfiguration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/ops"
	"github.com/ares-storage/ares/internal/spec"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		id        = flag.String("id", "", "process ID of this server (required)")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		peers     = flag.String("peers", "", "address book: id=addr,id=addr,... (required)")
		bootstrap = flag.String("bootstrap", "", "initial configuration spec (optional; see package doc)")
		dataDir   = flag.String("data-dir", "", "data directory for WAL + snapshots (empty = in-memory server, no crash recovery)")
		fsync     = flag.Bool("fsync", true, "fsync the WAL on every group commit (only meaningful with -data-dir)")
		coalesce  = flag.Bool("fsync-coalesce", true, "batch fsync barriers across WAL stripes (only meaningful with -fsync); false restores sync-per-burst")
		opsAddr   = flag.String("ops-addr", "", "ops HTTP listen address: /metrics, /metrics.json, pprof, /healthz, and the /admin API (empty = disabled)")
	)
	flag.Parse()
	if *id == "" || *peers == "" {
		flag.Usage()
		return fmt.Errorf("-id and -peers are required")
	}

	book, err := spec.ParseBook(*peers)
	if err != nil {
		return err
	}

	// The ops listener binds before recovery so probes can distinguish a
	// server replaying a long WAL (healthz 503 "starting", metrics live)
	// from a dead one. Readiness flips when the data plane is up.
	var bindOps func(*ares.Server)
	if *opsAddr != "" {
		surface, bind := ares.NewOpsServer()
		bound, stopOps, err := ops.Listen(*opsAddr, surface)
		if err != nil {
			return err
		}
		defer stopOps()
		bindOps = bind
		log.Printf("ops surface on http://%s", bound)
	}

	srv, stats, err := ares.NewServerWithDurability(ares.ProcessID(*id), *listen, book,
		ares.Durability{Dir: *dataDir, Fsync: *fsync, NoFsyncCoalesce: !*coalesce})
	if err != nil {
		return err
	}
	defer func() {
		if err := srv.Close(); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	if *dataDir != "" {
		log.Printf("recovered from %s: %d snapshot states, %d installs, %d retires, %d applies (%d skipped, %d torn segments truncated)",
			*dataDir, stats.SnapshotStates, stats.Installs, stats.Retires, stats.Applies, stats.Skipped, stats.TornSegments)
	}
	log.Printf("ares-server %s listening on %s", srv.ID(), srv.Addr())

	if *bootstrap != "" {
		c0, err := spec.Parse(*bootstrap)
		if err != nil {
			return err
		}
		if err := srv.Install(c0); err != nil {
			return err
		}
		log.Printf("installed bootstrap configuration %s (%s, n=%d)", c0.ID, c0.Algorithm, c0.N())
	}
	if bindOps != nil {
		bindOps(srv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("ares-server %s shutting down", srv.ID())
	return nil
}
