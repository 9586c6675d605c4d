package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/workload"
)

// sessionEnv is what the three session workloads share: one backend, a
// running service with the backend registered, the checker, and — in traced
// runs — the backend's decorated twin: the same server behind the timing
// decorator, registered as "<name>-traced".
type sessionEnv struct {
	b      *backend
	svc    *serviceEnv
	chk    *checker
	traced *tracedTuner
}

func (e *sessionEnv) tracedName() string { return e.b.name + "-traced" }

func (e *sessionEnv) stop() { e.svc.stop() }

// repeatSetup sets a workload up n times, stopping each environment before
// building the next, and returns the last one with every set-up's duration
// in seconds: set-up time is reported as their median.
func repeatSetup[E interface{ stop() }](n int, setup func() (E, error)) (env E, secs []float64, err error) {
	for i := 0; i < n; i++ {
		if i > 0 {
			env.stop()
		}
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, nil, err
		}
		secs = append(secs, seconds(time.Since(t0)))
	}
	return env, secs, nil
}

func newSessionEnv(backendName string, cfg runConfig, workers int, tr *tracer) (*sessionEnv, error) {
	b, err := newBackend(backendName, cfg.sc)
	if err != nil {
		return nil, err
	}
	e := &sessionEnv{b: b, chk: newChecker(b)}
	if e.svc, err = startService(workers); err != nil {
		return nil, err
	}
	if err := e.svc.register(b.name, b.srv, b.base); err != nil {
		e.stop()
		return nil, err
	}
	if tr != nil {
		e.traced = newTracedTuner(b.srv, tr)
		if err := e.svc.register(e.tracedName(), e.traced, b.base); err != nil {
			e.stop()
			return nil, err
		}
	}
	return e, nil
}

// tracedAcc accumulates the paired samples of a traced run: per variant one
// untraced reference op on the raw backend and one traced op on its
// decorated twin, both at Parallelism 1. The reference op gives the tracing
// overhead and the transparency check — a decorator that changed what the
// advisor does would change its call count.
type tracedAcc struct {
	refTunes, trTunes []float64 // seconds
	queueWaits        []float64 // ms
	closure           []float64 // %
	recs              []*core.Recommendation
	phases            []map[core.Phase]time.Duration
	ops               map[int]bool
	sessionNS         int64
	last              *service.Session
}

// pair checks one reference/traced pair and, when it passes, adds it to the
// accumulator. Revisions are optional (nil outcomes are skipped).
func (a *tracedAcc) pair(e *sessionEnv, tr *tracer, label string, ref, traced sessionOutcome, tracedRev *sessionOutcome) bool {
	switch {
	case ref.err != nil:
		e.chk.failf("%s (reference): %v", label, ref.err)
		return false
	case traced.err != nil:
		e.chk.failf("%s: %v", label, traced.err)
		return false
	}
	if ref.rec.WhatIfCalls != traced.rec.WhatIfCalls || ref.rec.DerivedEvals != traced.rec.DerivedEvals {
		e.chk.failf("%s: decorator not transparent: %d calls / %d derived evals traced vs %d / %d untraced", label,
			traced.rec.WhatIfCalls, traced.rec.DerivedEvals, ref.rec.WhatIfCalls, ref.rec.DerivedEvals)
		return false
	}
	if !e.chk.sameRec(label+" traced vs reference", ref.rec, traced.rec) {
		return false
	}
	a.refTunes = append(a.refTunes, seconds(ref.latency))
	a.trTunes = append(a.trTunes, seconds(traced.latency))
	a.recs = append(a.recs, traced.rec)
	a.sessionNS += int64(traced.latency)
	if tracedRev != nil && tracedRev.rec != nil {
		a.recs = append(a.recs, tracedRev.rec)
		a.sessionNS += int64(tracedRev.latency)
	}
	a.phases = append(a.phases, traced.pt.phases)
	a.queueWaits = append(a.queueWaits, millis(traced.pt.queueWait))
	a.closure = append(a.closure, 100*closureError(tr.snapshot(), traced.span))
	a.last = traced.sess
	return true
}

// finishTraced runs the direct, service-free layer calls on workload w0 and
// rolls the recorded spans up into the per-layer metrics. other is a second
// workload whose template distribution drift is scored against. It writes
// the trace file last, so callers add their own spans and metrics first.
func finishTraced(r *runResult, tr *tracer, e *sessionEnv, a *tracedAcc, cfg runConfig, w0, other *workload.Workload, meter *allocMeter) error {
	defer func() {
		fillLayerDefaults(r)
		r.Failures = e.chk.failures
	}()
	if len(a.trTunes) == 0 {
		return nil
	}

	// A fresh tune of w0 at Parallelism 1 — the same work the sessions did,
	// so the difference is the service's overhead — then a direct revision
	// of its pool, and a fresh tune under the halved budget the revision
	// must reproduce byte for byte.
	opts := e.b.coreOptions(1)
	var pool *core.CostedPool
	opts.PoolSink = func(p *core.CostedPool) { pool = p }
	pp := newProgressPhases()
	opts.Progress = pp.observe
	var direct *core.Recommendation
	var err error
	dTune := tr.timed("core.tune_direct", func() { direct, err = core.Tune(e.b.srv, w0, opts) })
	pp.finish()
	ok := e.chk.checkRec("direct tune", direct, err, e.b.budgetMB, pool)
	r.op(ok)
	if ok {
		// A daemon re-tunes without sessions: its derive counters and phase
		// times come from this direct run of the same pipeline.
		if len(a.recs) == 0 {
			a.recs = []*core.Recommendation{direct}
		}
		if len(a.phases) == 0 {
			a.phases = []map[core.Phase]time.Duration{pp.elapsed}
		}
		setLayer(r, "core.tune_direct_ms", millis(dTune), 1)
		if a.last != nil {
			setLayer(r, "service.overhead_ms", 1000*median(a.trTunes)-millis(dTune), len(a.trTunes))
		}

		wide := tuneSession(e.svc, e.b.name, w0, e.b.coreOptions(cfg.par), nil)
		if wide.err != nil {
			e.chk.failf("parallelism %d session: %v", cfg.par, wide.err)
		}
		r.op(wide.err == nil && e.chk.sameRec(fmt.Sprintf("parallelism 1 vs %d", cfg.par), direct, wide.rec))

		cons := opts.SearchConstraints()
		cons.StorageBudget = e.b.halfMB() << 20
		var revised *core.Recommendation
		var rerr error
		dRev := tr.timed("core.revise_direct", func() {
			revised, rerr = core.Revise(context.Background(), e.b.srv, pool, cons, core.Options{Parallelism: 1})
		})
		halved := e.b.coreOptions(1)
		halved.StorageBudget = cons.StorageBudget
		fresh, ferr := core.Tune(e.b.srv, w0, halved)
		if rerr != nil || ferr != nil {
			e.chk.failf("direct revise: %v; fresh tune under the halved budget: %v", rerr, ferr)
		}
		r.op(rerr == nil && ferr == nil && e.chk.sameRec("revise vs fresh tune under the halved budget", revised, fresh))
		setLayer(r, "core.revise_direct_ms", millis(dRev), 1)
		measurePool(r, tr, pool)
		measureOptimizer(r, tr, e.chk.opt, pool.Statements, pool.Base, direct.Config)
		measureSelect(r, tr, e.traced.capturedSkeletons(), direct.Config)
	}

	sqls := make([]string, len(w0.Events))
	for i, ev := range w0.Events {
		sqls[i] = ev.SQL
	}
	measureParser(r, tr, sqls)
	measureCompress(r, tr, w0)
	text, err := renderTrace(w0)
	if err != nil {
		return err
	}
	comp, err := measureIngest(r, tr, text)
	if err != nil {
		return fmt.Errorf("stream the rendered trace: %w", err)
	}
	measureDrift(r, tr, comp.TemplateWeights(), templateDist(other))
	if s := a.last; s != nil {
		measureExports(r, tr, e.svc, "/sessions/"+s.ID(), "/trace", s.Journal().Len(), s.Trace().SpanCount())
	}

	spans := tr.snapshot()
	busy := decoratorRollup(r, spans, a.ops, a.sessionNS)
	statsRollup(r, spans, e.traced.statsCreated())
	deriveRollup(r, a.recs)
	setPhaseMetrics(r, a.phases)
	n := len(a.trTunes)
	setLayer(r, "core.self_ms", millis(time.Duration(a.sessionNS)-busy)/float64(n), n)
	setLayer(r, "service.queue_wait_ms", median(a.queueWaits), n)
	setLayer(r, "service.session_p95_s", quantile(a.trTunes, 0.95), n)
	setLayer(r, "trace.overhead_pct", 100*(median(a.trTunes)-median(a.refTunes))/median(a.refTunes), n)
	worst := quantile(a.closure, 1)
	setLayer(r, "trace.self_time_closure_pct", worst, len(a.closure))
	if worst > 5 {
		e.chk.failf("span self times miss the session span by %.1f%% (> 5%%)", worst)
		r.op(false)
	}
	meter.end()
	runtimeMetrics(r, meter)
	r.Ops["traced"], r.Ops["reference"] = n, len(a.refTunes)
	return writeTrace(traceFile(cfg.outDir, r.Workload), r.Workload, cfg.seed, spans)
}

// runBatchTraced is the traced run of a batch workload.
func runBatchTraced(spec batchSpec, cfg runConfig) (*runResult, error) {
	r := newResult(spec.workload, cfg.seed, true)
	tr := newTracer()
	env, err := setupBatch(spec, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer env.stop()

	var meter allocMeter
	meter.begin()
	cache := newCacheMeter(env.svc.mgr)
	acc := &tracedAcc{ops: map[int]bool{}}
	n := cfg.sc.tracedOps
	if n > len(env.variants) {
		n = len(env.variants)
	}
	for v := 0; v < n; v++ {
		w := env.variants[v]
		ref := env.op(env.b.name, w, 1, nil)
		opSpan := tr.beginOp("op")
		acc.ops[tr.currentOp()] = true
		cache.begin()
		top := env.op(env.tracedName(), w, 1, tr)
		cache.end()
		tr.endOp(opSpan)
		meter.sampleNow()

		label := fmt.Sprintf("traced op %d", v)
		ok := acc.pair(env.sessionEnv, tr, label, ref.tune, top.tune, &top.rev) &&
			ref.check(env.sessionEnv, label+" (reference)", fmt.Sprint(v)) && top.check(env.sessionEnv, label, fmt.Sprint(v))
		r.op(ok)
	}
	cache.report(r)
	return r, finishTraced(r, tr, env.sessionEnv, acc, cfg, env.variants[0], env.variants[len(env.variants)-1], &meter)
}
