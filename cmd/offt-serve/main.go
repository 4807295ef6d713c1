// Command offt-serve runs the long-lived FFT service: transform requests
// over HTTP execute against cached offt plans whose worlds of rank
// goroutines persist between requests, with tuned-parameter warm starts,
// weighted admission control, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	offt-serve [-addr 127.0.0.1:8080] [-store params.json]
//	           [-max-plans 8] [-max-inflight 16] [-queue 64]
//	           [-timeout 10s] [-drain-timeout 30s] [-watchdog 20s]
//	           [-chaos-profile mixed] [-chaos-seed 1]
//	           [-metrics snap.json] [-pprof localhost:6060]
//	           [-shard-of http://host:port -peers url1,url2,...]
//
// The service itself always exposes /metrics (Prometheus text) and
// /metrics.json next to /v1/transform, /v1/plans and /healthz; -metrics
// additionally writes a final snapshot on exit and -pprof starts the
// shared debug server.
//
// Sharded fleet: start each replica with -shard-of (its own advertised
// URL) and -peers (every replica's URL). Plan keys consistent-hash to
// one owning replica; any replica accepts any request and forwards
// non-owned keys to the owner over the same wire format, so clients can
// spray the whole fleet while each plan's world stays hot on exactly one
// process. A draining replica (SIGTERM) reroutes fresh requests to live
// peers instead of shedding them.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"offt"
	"offt/internal/serve"
	"offt/internal/telemetry"
	"offt/internal/tuned"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	storePath := flag.String("store", "",
		"tuned-params store (from offt-tune -store) consulted to warm-start plan construction")
	maxPlans := flag.Int("max-plans", 8, "plan-registry capacity; the LRU idle plan's world is closed beyond it")
	maxInflight := flag.Int("max-inflight", 16,
		"admission capacity in rank-goroutine units (a p-rank transform holds p while executing)")
	queue := flag.Int("queue", 64, "bounded admission queue length; beyond it requests are shed with 429 (negative = no queue)")
	timeout := flag.Duration("timeout", 10*time.Second, "default and maximum per-request deadline (queue wait + execution)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight transforms before closing plans")
	maxElems := flag.Int("max-elements", 1<<24, "per-request payload cap in complex128 elements")
	chaosProfile := flag.String("chaos-profile", "",
		"inject deterministic communication faults into every Mem world (drop, corrupt, stall, mixed); chaos testing only")
	chaosSeed := flag.Int64("chaos-seed", 1, "deterministic fault-schedule seed for -chaos-profile")
	watchdog := flag.Duration("watchdog", -1,
		"mem-transport hang watchdog for built plans (-1 = library default, 0 = disabled for debugger sessions)")
	trace := flag.Bool("trace", false,
		"request-scoped tracing: every transform carries a span tree (queue → acquire → exec → per-phase/per-step) captured at /debug/requests")
	logLevel := flag.String("log-level", "",
		"structured JSON logging to stderr at this level (debug, info, warn, error; empty = logging off)")
	logOut := flag.String("log-out", "", "structured-log destination path (empty = stderr)")
	flightRecent := flag.Int("flight-recent", 0, "flight-recorder recent-request ring size (0 = default 128)")
	flightNotable := flag.Int("flight-notable", 0, "flight-recorder notable-request ring size (0 = default 64)")
	slowFactor := flag.Float64("slow-factor", 0, "flight-recorder slow capture: total latency > p99-EWMA × factor (0 = default 4)")
	slowMin := flag.Duration("slow-min", 0, "flight-recorder slow capture floor (0 = default 500µs)")
	sloObjective := flag.Duration("slo-objective", 0, "transform latency objective (0 = default 250ms)")
	sloWindow := flag.Duration("slo-window", 0, "rolling SLO error-budget window (0 = default 1m)")
	sloBudget := flag.Float64("slo-budget", 0, "allowed bad fraction inside the SLO window (0 = default 0.01)")
	shardOf := flag.String("shard-of", "",
		"this replica's advertised base URL within a sharded fleet (e.g. http://10.0.0.1:8080); requires -peers")
	peers := flag.String("peers", "",
		"comma-separated base URLs of every fleet replica (self included); plan keys consistent-hash to one owner and non-owned requests forward to it")
	var obs telemetry.CLI
	obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(os.Stderr); err != nil {
		return err
	}

	// The service always runs with telemetry: its own /metrics endpoint
	// serves the registry even when no -metrics snapshot was requested.
	reg := obs.Registry()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	var store *tuned.Store
	if *storePath != "" {
		s, err := tuned.Load(*storePath)
		if err != nil {
			return err
		}
		store = s
		fmt.Printf("loaded %d tuned configurations from %s\n", s.Len(), *storePath)
	}

	if *chaosProfile != "" {
		if _, err := offt.ParseFaultProfile(*chaosProfile); err != nil {
			return err
		}
		fmt.Printf("CHAOS: injecting %q faults (seed %d) into every Mem world\n", *chaosProfile, *chaosSeed)
	}
	// Flag semantics: -1 (default) = library watchdog, 0 = disabled for
	// debugger sessions, >0 = explicit. Config uses 0 = default and
	// negative = disabled, so translate.
	var wd time.Duration
	switch {
	case *watchdog > 0:
		wd = *watchdog
	case *watchdog == 0:
		wd = -1
	}

	var logger *telemetry.Logger
	if *logLevel != "" {
		lv, err := telemetry.ParseLevel(*logLevel)
		if err != nil {
			return err
		}
		logw := os.Stderr
		if *logOut != "" {
			f, err := os.OpenFile(*logOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			logw = f
		}
		logger = telemetry.NewLogger(logw, lv)
	}
	if *trace {
		fmt.Println("request tracing on: span trees at /debug/requests (add ?format=chrome for Perfetto)")
	}

	srv := serve.New(serve.Config{
		MaxPlans:         *maxPlans,
		MaxInFlightRanks: *maxInflight,
		MaxQueue:         *queue,
		DefaultTimeout:   *timeout,
		MaxElements:      *maxElems,
		Store:            store,
		Telemetry:        reg,
		FaultProfile:     *chaosProfile,
		FaultSeed:        *chaosSeed,
		Watchdog:         wd,
		Trace:            *trace,
		Logger:           logger,
		FlightRecent:     *flightRecent,
		FlightNotable:    *flightNotable,
		SlowFactor:       *slowFactor,
		SlowMin:          *slowMin,
		SLOObjective:     *sloObjective,
		SLOWindow:        *sloWindow,
		SLOBudget:        *sloBudget,
	})

	if *shardOf != "" || *peers != "" {
		if *shardOf == "" || *peers == "" {
			return fmt.Errorf("sharded mode needs both -shard-of and -peers")
		}
		cfg := serve.ShardConfig{Self: *shardOf, Peers: strings.Split(*peers, ",")}
		if err := srv.EnableShard(cfg); err != nil {
			return err
		}
		sh := srv.Shard()
		fmt.Printf("sharded fleet: self=%s peers=%s\n", sh.SelfURL(), strings.Join(sh.Peers(), ","))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("offt-serve listening on http://%s (max-plans=%d max-inflight=%d queue=%d)\n",
		ln.Addr(), *maxPlans, *maxInflight, *queue)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		fmt.Printf("received %v: draining (admission stopped; waiting up to %v for in-flight transforms)\n",
			sig, *drainTimeout)
	case err := <-errc:
		return fmt.Errorf("http server: %w", err)
	}

	// Graceful drain: stop admission, finish in-flight transforms, close
	// every plan's world, then stop accepting connections and flush the
	// telemetry snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	_ = httpSrv.Shutdown(shutCtx)
	if err := obs.Finish(); err != nil {
		return err
	}
	fmt.Println("offt-serve drained cleanly")
	return nil
}
