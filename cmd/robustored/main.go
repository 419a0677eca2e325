// Command robustored runs a RobuSTore storage server: a block store
// (in-memory or on-disk) exposed over the block protocol, optionally
// behind an admission controller and an observability debug endpoint.
//
// The server stores sealed shares only: it checks each block's envelope
// header on PUT, and answers the SCRUB op by verifying every envelope
// of a segment in place, so the client's scrub/repair daemon finds
// at-rest bit rot and misfiled blocks without moving payload data.
//
// Usage:
//
//	robustored -listen :7070 -dir /var/lib/robustore
//	robustored -listen :7071 -mem -max-concurrent 32 -max-bytes 268435456
//	robustored -listen :7070 -mem -debug-listen :9090   # loopback debug HTTP
//	robustored -listen :7070 -mem -faults 'stall=50ms@0.2,corrupt=0.05'
//	robustored -listen :7070 -mem -faults '0s:latency=0s;30s:reset=0.3;60s:reset=0'
//
// With -debug-listen, an HTTP endpoint serves /metrics (plain-text
// counters, gauges, and latency histograms with mean/stddev/p50/p99),
// /metrics.json, and /debug/trace (the last completed per-request
// traces). The endpoint has no authentication: a bare ":port" binds
// 127.0.0.1 only; an explicit host is required to expose it wider.
//
// With -faults, the server injects deterministic faults (seeded by
// -fault-seed) into its own serving path for chaos testing: store-level
// faults (latency, stall-then-drop, errors, GET corruption) and
// wire-level faults (connection resets, short reads). The spec is a
// faultinject scenario: either a single phase "stall=50ms@0.2,reset=0.1"
// or ";"-separated "AFTER:SPEC" phases scheduled on the server clock.
// Injected faults appear as faultinject_* counters on the debug
// endpoint.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/admission"
	"repro/internal/blockstore"
	"repro/internal/faultinject"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	var (
		listen        = flag.String("listen", ":7070", "address to listen on")
		dir           = flag.String("dir", "", "directory for the on-disk store (required unless -mem)")
		mem           = flag.Bool("mem", false, "serve from an in-memory store")
		maxConcurrent = flag.Int("max-concurrent", 0, "admission: max concurrent data requests (0 = no controller)")
		maxBytes      = flag.Int64("max-bytes", 0, "admission: max in-flight bytes (0 = unlimited)")
		priority      = flag.Bool("priority", false, "admission: use priority-based instead of capacity-based control")
		debugListen   = flag.String("debug-listen", "", "serve /metrics and /debug/trace on this HTTP address (\":port\" binds loopback; empty disables)")
		faults        = flag.String("faults", "", "inject faults: a faultinject spec ('stall=50ms@0.2,corrupt=0.05') or ';'-separated 'AFTER:SPEC' phases (empty disables)")
		faultSeed     = flag.Int64("fault-seed", 1, "seed for the deterministic fault stream")
		metaServer    = flag.String("meta-server", "", "register with this metadata server (or comma-separated replicated group) on startup")
		advertise     = flag.String("advertise", "", "address to register under (default: the -listen address)")
		zone          = flag.String("zone", "", "failure domain to register under (placement spreads across zones)")
		mbps          = flag.Float64("mbps", 0, "expected throughput hint to register (MB/s; 0 = unknown)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "robustored: ", log.LstdFlags)

	var store blockstore.Store
	switch {
	case *mem:
		store = blockstore.NewMemStore()
	case *dir != "":
		fs, err := blockstore.NewFileStore(*dir)
		if err != nil {
			logger.Fatal(err)
		}
		store = fs
	default:
		logger.Fatal("either -dir or -mem is required")
	}
	store = blockstore.WithChecksums(store)

	// Observability: opt-in debug HTTP endpoint. The registry is only
	// created when enabled, so the serving path stays uninstrumented
	// (nil-registry no-ops) otherwise.
	var reg *obs.Registry
	var debugLn net.Listener
	if *debugListen != "" {
		reg = obs.NewRegistry()
		addr := *debugListen
		if strings.HasPrefix(addr, ":") {
			addr = "127.0.0.1" + addr // loopback by default: no auth on this endpoint
		}
		var err error
		debugLn, err = net.Listen("tcp", addr)
		if err != nil {
			logger.Fatal(err)
		}
		go func() {
			if err := http.Serve(debugLn, obs.Handler(reg)); err != nil {
				logger.Printf("debug endpoint: %v", err)
			}
		}()
		fmt.Printf("debug endpoint on http://%s/metrics\n", debugLn.Addr())
	}

	// Fault injection: one spec, split across the two serving layers so
	// timing and data faults (latency, stalls, errors, corruption) fire
	// inside the store handler — where request contexts apply — while
	// connection faults (resets, short reads) fire on the wire. Both
	// injectors draw deterministic streams derived from -fault-seed and
	// report into the same faultinject_* counters.
	var connInj *faultinject.Injector
	if *faults != "" {
		scenario, err := faultinject.ParseScenario(*faults)
		if err != nil {
			logger.Fatal(err)
		}
		var storePhases, connPhases []faultinject.Phase
		for _, p := range scenario.Phases() {
			sp := p
			sp.Config.ResetProb, sp.Config.ShortReadProb = 0, 0
			storePhases = append(storePhases, sp)
			cp := p
			cp.Config = faultinject.Config{
				ResetProb:     p.Config.ResetProb,
				ShortReadProb: p.Config.ShortReadProb,
			}
			connPhases = append(connPhases, cp)
		}
		storeInj := faultinject.New(*faultSeed, faultinject.Config{}, reg)
		storeInj.Run(faultinject.NewScenario(storePhases...))
		store = faultinject.WrapStore(store, storeInj)
		connInj = faultinject.New(*faultSeed+1, faultinject.Config{}, reg)
		connInj.Run(faultinject.NewScenario(connPhases...))
		logger.Printf("fault injection active: %q (seed %d)", *faults, *faultSeed)
	}

	opts := transport.ServerOptions{Logger: logger, Obs: reg}
	if *maxConcurrent > 0 || *maxBytes > 0 {
		cfg := admission.Config{MaxConcurrent: *maxConcurrent, MaxBytes: *maxBytes}
		var ctrl admission.Controller
		var err error
		if *priority {
			ctrl, err = admission.NewPriority(cfg)
		} else {
			ctrl, err = admission.NewCapacity(cfg)
		}
		if err != nil {
			logger.Fatal(err)
		}
		opts.Admission = ctrl
	}

	srv := transport.NewServer(store, opts)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("robustored listening on %s\n", ln.Addr())
	ln = faultinject.WrapListener(ln, connInj) // no-op when -faults is unset

	// Self-registration: announce this server (address, failure domain,
	// performance hint) to the metadata plane so placement can weight
	// it. A blank State on re-registration preserves any lifecycle
	// state already recorded — a restart never silently undrains a
	// Draining server; that takes an explicit `robustore undrain`.
	if *metaServer != "" {
		var endpoints []string
		for _, a := range strings.Split(*metaServer, ",") {
			if a = strings.TrimSpace(a); a != "" {
				endpoints = append(endpoints, a)
			}
		}
		remote, err := metadata.DialRemoteMulti(endpoints, metadata.RemoteOptions{})
		if err != nil {
			logger.Fatal(err)
		}
		addr := *advertise
		if addr == "" {
			addr = ln.Addr().String()
		}
		err = remote.RegisterServer(metadata.Server{Addr: addr, Zone: *zone, ExpectedMBps: *mbps})
		remote.Close()
		if err != nil {
			logger.Fatalf("registering with metadata server: %v", err)
		}
		logger.Printf("registered %s (zone %q) with metadata plane", addr, *zone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Print("shutting down")
		if debugLn != nil {
			debugLn.Close()
		}
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		logger.Fatal(err)
	}
}
