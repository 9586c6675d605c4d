// Command dtaserver runs the tuning advisor as a long-lived HTTP service:
// the paper's §2.1 deployment where DTA is a server-side feature DBAs submit
// tuning sessions to, watch progress on, and cancel — here over a JSON API.
//
// Usage:
//
//	dtaserver -addr :8700 -db tpch,psoft -sf 0.01 -workers 4
//
// Endpoints (see internal/service):
//
//	POST   /sessions             create a session (JSON or DTAXML body)
//	POST   /sessions/trace       create a session from a raw trace streamed as the body
//	POST   /sessions/resume      resume checkpointed sessions from -state-dir
//	GET    /sessions             list sessions
//	GET    /sessions/{id}        session snapshot
//	GET    /sessions/{id}/events progress stream (NDJSON)
//	GET    /sessions/{id}/trace  session timeline (Chrome trace-event JSON)
//	GET    /sessions/{id}/journal decision journal (NDJSON, ?kind= filters)
//	GET    /sessions/{id}/explain per-structure provenance from the journal
//	PATCH  /sessions/{id}        revise a completed session under changed constraints
//	DELETE /sessions/{id}        cancel (keeps the best-so-far result)
//	POST   /daemons              create a continuous tuning daemon
//	POST   /daemons/resume       restore persisted daemons from -state-dir
//	GET    /daemons              list daemons
//	GET    /daemons/{id}         daemon snapshot
//	POST   /daemons/{id}/trace   ingest one trace chunk; re-tunes when drift crosses -drift-threshold
//	GET    /daemons/{id}/delta   recommendation deltas (?since=N)
//	POST   /daemons/{id}/feedback accept/veto structures, optionally forcing a re-tune
//	GET    /daemons/{id}/events  daemon event stream (NDJSON)
//	GET    /daemons/{id}/journal decision journal (NDJSON, ?kind= filters)
//	GET    /daemons/{id}/explain why the latest delta was proposed
//	GET    /daemons/{id}/timeline daemon timeline (Chrome trace-event JSON)
//	DELETE /daemons/{id}         close a daemon
//	GET    /metrics              Prometheus metrics (JSON via Accept header)
//	GET    /metrics.json         cumulative service metrics, JSON
//	GET    /backends             registered databases
//
// With -pprof the standard net/http/pprof profiling handlers are mounted
// under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/demo"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/testsrv"
)

func main() {
	var (
		addr       = flag.String("addr", ":8700", "HTTP listen address")
		dbs        = flag.String("db", "tpch", "comma-separated demonstration databases to serve: tpch,psoft,synt1")
		sf         = flag.Float64("sf", 0.01, "scale factor / data scale for the demonstration databases")
		workers    = flag.Int("workers", 4, "maximum concurrently running tuning sessions")
		maxPar     = flag.Int("max-parallelism", 0, "cap per-session evaluation parallelism (0 = uncapped); sessions request theirs in options.parallelism")
		useTestSrv = flag.Bool("test-server", false, "tune each database through a test server (§5.3)")
		withPprof  = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		faultSpec  = flag.String("fault-spec", "", `server-wide fault injection spec, e.g. "seed=7;whatif:error:0.10" (sites: whatif, stats, import; kinds: error, latency, panic)`)
		stateDir   = flag.String("state-dir", "", "directory for session checkpoints; killed sessions resume from here on restart")
		deriveMode = flag.String("derive", "on", "cost-derivation default for sessions that do not set options.derive: on | verify; the recommendation does not depend on it")
		poolTTL    = flag.Duration("pool-retention", 0, "how long completed sessions keep their costed pool for PATCH /sessions/{id} revision (0 = forever)")
		driftThr   = flag.Float64("drift-threshold", service.DefaultDriftThreshold, "drift score at which a continuous tuning daemon re-tunes, for daemons that do not set drift.threshold")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "dtaserver: bad -log-level:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if err := run(logger, *addr, *dbs, *sf, *workers, *maxPar, *useTestSrv, *withPprof, *faultSpec, *stateDir, *deriveMode, *poolTTL, *driftThr); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// FaultSetter is the backend hook -fault-spec attaches through; both
// *whatif.Server and *testsrv.Session implement it.
type FaultSetter interface {
	SetFaults(*fault.Injector)
}

func run(logger *slog.Logger, addr, dbs string, sf float64, workers, maxPar int, useTestSrv, withPprof bool, faultSpec, stateDir, deriveMode string, poolTTL time.Duration, driftThr float64) error {
	m := service.NewManager(workers)
	m.SetLogger(logger)
	m.SetParallelismCap(maxPar)
	m.SetPoolRetention(poolTTL)
	m.SetDriftThreshold(driftThr)
	dmode, err := derive.ParseMode(deriveMode)
	if err != nil {
		return fmt.Errorf("bad -derive: %w", err)
	}
	m.SetDeriveDefault(dmode)

	var injector *fault.Injector
	if faultSpec != "" {
		spec, err := fault.ParseSpec(faultSpec)
		if err != nil {
			return fmt.Errorf("bad -fault-spec: %w", err)
		}
		injector = fault.NewInjector(spec)
		injector.SetMetrics(m.Registry())
		logger.Warn("fault injection active", "spec", spec.String())
	}

	for _, name := range strings.Split(dbs, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		srv, builtin, err := demo.Build(name, sf)
		if err != nil {
			return err
		}
		b := &service.Backend{
			Name:            name,
			Tuner:           srv,
			DefaultWorkload: builtin,
			BaseConfig:      demo.ConstraintConfig(name, srv.Cat),
		}
		if useTestSrv {
			b.Tuner = testsrv.NewSession(srv)
		}
		if injector != nil {
			if fs, ok := b.Tuner.(FaultSetter); ok {
				fs.SetFaults(injector)
			}
		}
		if err := m.Register(b); err != nil {
			return err
		}
		logger.Info("serving database", "db", name,
			"tables", len(srv.Cat.Tables()),
			"dataMB", fmt.Sprintf("%.1f", float64(srv.Cat.Bytes())/(1<<20)),
			"workloadStatements", builtin.Len(),
			"testServer", useTestSrv)
	}
	if len(m.Backends()) == 0 {
		return fmt.Errorf("no databases to serve (-db)")
	}

	if stateDir != "" {
		if err := m.SetStateDir(stateDir); err != nil {
			return err
		}
		resumed, err := m.ResumeSessions()
		if err != nil {
			return err
		}
		daemons, err := m.ResumeDaemons()
		if err != nil {
			return err
		}
		logger.Info("session state enabled", "stateDir", stateDir,
			"resumed", len(resumed), "daemons", len(daemons))
	}

	mux := http.NewServeMux()
	mux.Handle("/", m.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// WriteTimeout stays 0: /sessions/{id}/events is a long-lived NDJSON
	// stream and a write deadline would sever it mid-session.
	hs := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	// Serve until interrupted, then cancel live sessions and drain.
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", addr, "workers", workers,
		"pprof", withPprof,
		"readHeaderTimeout", hs.ReadHeaderTimeout,
		"idleTimeout", hs.IdleTimeout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sigc:
		logger.Info("shutting down", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		logger.Warn("session drain", "err", err)
	}
	return hs.Shutdown(ctx)
}
