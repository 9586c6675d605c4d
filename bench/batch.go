package main

import (
	"fmt"
	"time"

	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/workload"
)

// batchSpec parameterizes the two single-client batch workloads, which
// share one runner: synt1-batch (single table, SELECT-only, IDX) and
// psoft-mixed (joins and DML, all features).
type batchSpec struct {
	workload string
	backend  string
	// trace draws the fixed-template base trace; variants is how many
	// seeded variants of it a run cycles through.
	trace    func(b *backend, sc scale) *workload.Workload
	variants func(sc scale) int
}

var synt1Spec = batchSpec{wlSynt1, "synt1",
	func(b *backend, sc scale) *workload.Workload {
		return setquery.Workload(b.cat, sc.synt1Events, sc.synt1Templates, templateSeed)
	},
	func(sc scale) int { return sc.synt1Variants }}

var psoftSpec = batchSpec{wlPsoft, "psoft",
	func(b *backend, sc scale) *workload.Workload {
		return psoft.Workload(b.cat, sc.psoftEvents, templateSeed)
	},
	func(sc scale) int { return sc.psoftVariants }}

// batchEnv is one set-up batch workload: the session environment plus the
// seeded trace variants.
type batchEnv struct {
	*sessionEnv
	variants []*workload.Workload
}

// setupBatch builds everything a batch run needs and runs the warm-up op —
// one tune plus one storage-halved revision of variant 0 — which creates the
// backend's statistics and is billed to set-up. tr is nil for untraced runs.
func setupBatch(spec batchSpec, cfg runConfig, tr *tracer) (*batchEnv, error) {
	se, err := newSessionEnv(spec.backend, cfg, 2, tr)
	if err != nil {
		return nil, err
	}
	e := &batchEnv{sessionEnv: se}
	b := e.b
	e.variants = batchVariants(spec.trace(b, cfg.sc), spec.variants(cfg.sc), cfg.seed)
	warmBackend, par := b.name, cfg.par
	if tr != nil {
		defer tr.endOp(tr.beginOp("warmup"))
		warmBackend, par = e.tracedName(), 1
	}
	warm := tuneSession(e.svc, warmBackend, e.variants[0], b.coreOptions(par), nil)
	if warm.err != nil {
		e.stop()
		return nil, fmt.Errorf("warm-up tune: %w", warm.err)
	}
	if rev := reviseSession(e.svc, warm.sess, b.halfMB(), nil); rev.err != nil {
		e.stop()
		return nil, fmt.Errorf("warm-up revise: %w", rev.err)
	}
	return e, nil
}

// batchOp is one measured op: Create→Wait, then one Revise with the storage
// budget halved.
type batchOp struct {
	tune, rev sessionOutcome
}

func (e *batchEnv) op(backendName string, w *workload.Workload, par int, tr *tracer) batchOp {
	var op batchOp
	op.tune = tuneSession(e.svc, backendName, w, e.b.coreOptions(par), tr)
	if op.tune.err != nil {
		return op
	}
	op.rev = reviseSession(e.svc, op.tune.sess, e.b.halfMB(), tr)
	return op
}

// check validates one op's two recommendations; the pool is read after the
// op, outside any timed interval.
func (op batchOp) check(e *sessionEnv, label, variant string) bool {
	if !e.chk.checkRec(label+" tune", op.tune.rec, op.tune.err, e.b.budgetMB, op.tune.sess.Pool()) {
		return false
	}
	ok := e.chk.checkStable(label, variant, op.tune.rec)
	return e.chk.checkRec(label+" revise", op.rev.rec, op.rev.err, e.b.halfMB(), op.rev.sess.Pool()) && ok
}

func runBatch(spec batchSpec, cfg runConfig) (*runResult, error) {
	if cfg.traced {
		return runBatchTraced(spec, cfg)
	}
	r := newResult(spec.workload, cfg.seed, false)
	env, setups, err := repeatSetup(cfg.sc.setups, func() (*batchEnv, error) { return setupBatch(spec, cfg, nil) })
	if err != nil {
		return nil, err
	}
	defer env.stop()

	var tunes, revises, imps []float64
	var calls int64
	var wall time.Duration
	var events int
	var meter allocMeter
	for c := 0; c < cfg.sc.batchCycles; c++ {
		for v, w := range env.variants {
			meter.begin()
			op := env.op(env.b.name, w, cfg.par, nil)
			meter.end()
			ok := op.tune.err == nil && op.check(env.sessionEnv, fmt.Sprintf("op %d/%d", c, v), fmt.Sprint(v))
			r.op(ok)
			if !ok {
				if op.tune.err != nil {
					env.chk.failf("op %d/%d: %v", c, v, op.tune.err)
				}
				continue
			}
			tunes = append(tunes, seconds(op.tune.latency))
			revises = append(revises, millis(op.rev.latency))
			imps = append(imps, op.tune.rec.Improvement)
			calls += op.tune.rec.WhatIfCalls + op.rev.rec.WhatIfCalls
			wall += op.tune.latency + op.rev.latency
			events += w.Len()
		}
	}
	r.Failures = env.chk.failures
	r.Ops["tune"], r.Ops["revise"], r.Ops["clients"] = len(tunes), len(revises), 1
	batchEndToEnd(r, setups, tunes, revises, imps, calls, wall, events, &meter)
	return r, nil
}

// batchEndToEnd fills the end-to-end metrics of a session workload from its
// per-op samples. Workloads without a daemon report the two retune metrics
// as their session equivalents (a revision, a fresh tune); see README.md.
func batchEndToEnd(r *runResult, setups, tunes, revises, imps []float64, calls int64, wall time.Duration, events int, meter *allocMeter) {
	r.Raw["setup_s"], r.Raw["tune_s"], r.Raw["revise_ms"] = setups, tunes, revises
	r.set(mSetup, "s", median(setups), len(setups))
	r.set(mTuneP50, "s", median(tunes), len(tunes))
	r.set(mReviseP50, "ms", median(revises), len(revises))
	r.set(mRetuneFresh, "s", median(tunes), len(tunes))
	r.set(mRetuneRevise, "s", median(revises)/1000, len(revises))
	if wall > 0 {
		r.set(mSessionsMin, "1/min", 60*float64(len(tunes))/seconds(wall), len(tunes))
	}
	if t := sum(tunes); t > 0 {
		r.set(mIngest, "events/s", float64(events)/t, len(tunes))
	}
	r.set(mWhatIfCalls, "count", float64(calls), 0)
	r.set(mImprovement, "%", 100*mean(imps), len(imps))
	r.set(mAllocMBPerOp, "MB", meter.mbPerOp(len(tunes)), len(tunes))
}
