package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/demo"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The template universes and the stored data are drawn from fixed seeds:
// what a run's -seed varies is the trace realisation — how often each
// captured statement recurred (its weight) and, on daemon-drift, the arrival
// order of the events. Template draws are held fixed on purpose:
// across setquery template seeds one SYNT1 tune ranges from 1,914 to 5,428
// what-if calls and 1.6 s to 2.9 s, a spread no regression bound survives.
const (
	dataSeed          = 1
	templateSeed      = 1
	shiftTemplateSeed = templateSeed + 1000
)

// scale sizes one benchmark run. Op counts shrink with -seconds and in
// smoke mode; the data shape of the full scale never does.
type scale struct {
	synt1Rows      int64
	synt1Events    int
	synt1Templates int
	tpchSF         float64
	psoftScale     float64
	psoftEvents    int

	// synt1Variants / psoftVariants seeded traces are cycled batchCycles
	// times (synt1-batch, psoft-mixed).
	synt1Variants int
	psoftVariants int
	batchCycles   int
	// fleetVariants session shapes of fleetQueries queries each are cycled
	// fleetCycles times by every client (tpch-fleet).
	fleetVariants int
	fleetQueries  int
	fleetCycles   int
	// daemon-drift: passes of initial · stable×daemonStable · reweight ·
	// shift · feedback over daemonTemplates SYNT1 templates.
	daemonTemplates int
	daemonInitial   int
	daemonChunk     int
	daemonStable    int
	daemonPasses    int

	// setups is how many times set-up is repeated (median reported); the
	// last one is measured on.
	setups int
	// tracedOps is the reduced op count of a traced run.
	tracedOps int
}

// referenceSeconds is the BENCHMARK.json run_seconds the full-scale op
// counts are sized for on the 2-core reference box.
const referenceSeconds = 20

func fullScale(secs int) scale {
	// Op counts scale with -seconds in whole cycles, so a run always covers
	// every variant equally often and counts repeat exactly.
	cycles := func(atReference int) int {
		n := (atReference*secs + referenceSeconds/2) / referenceSeconds
		if n < 1 {
			n = 1
		}
		return n
	}
	return scale{
		synt1Rows: 100000, synt1Events: 8000, synt1Templates: 100,
		tpchSF:     0.01,
		psoftScale: 0.02, psoftEvents: 6000,
		synt1Variants: 3, psoftVariants: 2, batchCycles: cycles(3),
		fleetVariants: 8, fleetQueries: 16, fleetCycles: cycles(13),
		daemonTemplates: 60, daemonInitial: 4000, daemonChunk: 50000, daemonStable: 4, daemonPasses: cycles(2),
		setups:    2,
		tracedOps: 2,
	}
}

func smokeScale() scale {
	return scale{
		synt1Rows: 2000, synt1Events: 120, synt1Templates: 6,
		tpchSF:     0.001,
		psoftScale: 0.004, psoftEvents: 120,
		synt1Variants: 2, psoftVariants: 2, batchCycles: 1,
		fleetVariants: 2, fleetQueries: 6, fleetCycles: 1,
		daemonTemplates: 4, daemonInitial: 80, daemonChunk: 400, daemonStable: 2, daemonPasses: 1,
		setups:    1,
		tracedOps: 1,
	}
}

// backend is one tunable database the harness built: catalog, loaded data,
// production what-if server, constraint base configuration and the storage
// budget (3× raw data, the paper's setting) in whole megabytes — the
// service's wire unit, so programmatic and HTTP sessions agree.
type backend struct {
	name     string
	cat      *catalog.Catalog
	db       *engine.Database
	srv      *whatif.Server
	base     *catalog.Configuration
	budgetMB int64
	features string
}

// halfMB is the revision budget: the storage bound halved.
func (b *backend) halfMB() int64 {
	if b.budgetMB < 2 {
		return 1
	}
	return b.budgetMB / 2
}

func newBackend(name string, sc scale) (*backend, error) {
	b := &backend{name: name}
	var err error
	switch name {
	case "synt1":
		b.cat = setquery.Catalog(sc.synt1Rows)
		b.db, err = setquery.Load(b.cat, dataSeed)
		b.features = "IDX"
	case "tpch":
		b.cat = tpch.Catalog(sc.tpchSF)
		b.db, err = tpch.Load(b.cat, dataSeed)
		b.features = "ALL"
	case "psoft":
		b.cat = psoft.Catalog(sc.psoftScale)
		b.db, err = psoft.Load(b.cat, dataSeed)
		b.features = "ALL"
	default:
		return nil, fmt.Errorf("unknown backend %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	b.srv = whatif.NewServer(name, b.cat, optimizer.DefaultHardware())
	b.srv.AttachData(b.db)
	b.base = demo.ConstraintConfig(name, b.cat)
	b.budgetMB = 3 * b.cat.Bytes() >> 20
	if b.budgetMB < 2 {
		b.budgetMB = 2
	}
	return b, nil
}

// wireOptions are the session options every workload tunes under, in the
// service's wire form.
func (b *backend) wireOptions(parallelism int) service.CreateOptions {
	return service.CreateOptions{
		Features:    b.features,
		StorageMB:   b.budgetMB,
		SkipReports: true,
		Parallelism: parallelism,
		Derive:      string(derive.On),
	}
}

// coreOptions is wireOptions for programmatic sessions and direct core
// calls. Compression stays at the advisor default (on above 50 events).
func (b *backend) coreOptions(parallelism int) core.Options {
	mask := core.FeatureAll
	if b.features == "IDX" {
		mask = core.FeatureIndexes
	}
	return core.Options{
		Features:      mask,
		StorageBudget: b.budgetMB << 20,
		SkipReports:   true,
		Parallelism:   parallelism,
		Derive:        derive.On,
		BaseConfig:    b.base,
	}
}

// recurrences draws how often one captured statement recurred in the traced
// interval: 19, 20 or 21 times. The ±5% jitter is what a run's seed varies
// on the session workloads; it flips cost-weighted decisions only where they
// are near ties, which keeps the work per op — and so every metric — steady
// from seed to seed.
func recurrences(rng *rand.Rand) int { return 19 + rng.Intn(3) }

// weighted returns base with per-event weights redrawn from rng.
// Statements are shared read-only with base.
func weighted(base *workload.Workload, rng *rand.Rand) *workload.Workload {
	out := &workload.Workload{Events: make([]*workload.Event, len(base.Events))}
	for i, e := range base.Events {
		cp := *e
		cp.Weight = float64(recurrences(rng))
		out.Events[i] = &cp
	}
	return out
}

// batchVariants renders the seeded trace variants of a batch workload.
func batchVariants(base *workload.Workload, n int, seed int64) []*workload.Workload {
	out := make([]*workload.Workload, n)
	for i := range out {
		out[i] = weighted(base, rand.New(rand.NewSource(seed*1009+int64(i))))
	}
	return out
}

// fleetVariants builds the tpch-fleet session shapes: variant v submits
// `queries` of the 22 TPC-H queries — all but a window of consecutive
// queries whose start rotates with v, so every query is left out by about
// the same number of variants and sessions overlap partially, never totally
// — under seeded recurrence weights. Which queries a variant leaves out is
// not seeded: a session without Q9 or Q21 is a structurally cheaper session,
// and rotating the windows per seed spread whatif_calls by 2.7% and the
// revision median by 18% from seed to seed.
func fleetVariants(n, queries int, seed int64) [][]workload.Statement {
	qs := tpch.Queries()
	if queries > len(qs) {
		queries = len(qs)
	}
	rng := rand.New(rand.NewSource(seed))
	skip := len(qs) - queries
	out := make([][]workload.Statement, n)
	for v := range out {
		start := v * len(qs) / n
		for i, q := range qs {
			if d := (i - start + len(qs)) % len(qs); d < skip {
				continue
			}
			out[v] = append(out[v], workload.Statement{SQL: q, Weight: float64(recurrences(rng))})
		}
	}
	return out
}

// templateDist is the template-weight distribution of a workload, the
// input of drift scoring.
func templateDist(w *workload.Workload) map[string]float64 {
	out := map[string]float64{}
	for _, e := range w.Events {
		out[e.Signature()] += e.Weight
	}
	return out
}

// traceLines drains a rendered trace into its lines.
func traceLines(r io.Reader) ([]string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n"), nil
}

// renderTrace writes a workload in the trace line format, which holds one
// statement per line: the TPC-H query texts span several, so white space in
// the statement texts is collapsed first.
func renderTrace(w *workload.Workload) (string, error) {
	flat := &workload.Workload{Events: make([]*workload.Event, len(w.Events))}
	for i, e := range w.Events {
		cp := *e
		cp.SQL = strings.Join(strings.Fields(e.SQL), " ")
		flat.Events[i] = &cp
	}
	var b strings.Builder
	if err := workload.WriteTrace(&b, flat); err != nil {
		return "", err
	}
	return b.String(), nil
}

// serviceEnv is a running tuning service over one or more backends: the
// Manager for programmatic ops and its Handler bound to a loopback listener
// for ops that go over real HTTP.
type serviceEnv struct {
	mgr    *service.Manager
	url    string
	client *http.Client
	server *http.Server
	done   chan struct{}
}

// poolRetention keeps a finished session's costed pool just long enough for
// the revision that immediately follows it, so pools do not pile up on the
// heap across a run.
const poolRetention = 10 * time.Second

// startService starts a manager with `workers` session slots and serves its
// HTTP API on 127.0.0.1. Callers register backends on env.mgr.
func startService(workers int) (*serviceEnv, error) {
	mgr := service.NewManager(workers)
	mgr.SetDeriveDefault(derive.On)
	mgr.SetPoolRetention(poolRetention)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	env := &serviceEnv{
		mgr:    mgr,
		url:    "http://" + ln.Addr().String(),
		server: &http.Server{Handler: mgr.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers + 1}},
	}
	go func() {
		defer close(env.done)
		// Serve returns once Shutdown closes the listener.
		_ = env.server.Serve(ln)
	}()
	return env, nil
}

// stop shuts the HTTP server and every live session down and waits for the
// serving goroutine to exit.
func (e *serviceEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.server.Shutdown(ctx)
	_ = e.mgr.Shutdown(ctx)
	<-e.done
	e.client.CloseIdleConnections()
}

func (e *serviceEnv) register(name string, t core.Tuner, base *catalog.Configuration) error {
	return e.mgr.Register(&service.Backend{Name: name, Tuner: t, BaseConfig: base})
}
