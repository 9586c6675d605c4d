package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datagen/setquery"
	"repro/internal/service"
	"repro/internal/workload"
)

// daemon-drift: continuous tuning on SYNT1 with persistence on. One pass is
//
//	CreateDaemon → IngestTrace initial · stable×N · reweight · shift
//	→ Feedback (accept top, veto runner-up, re-tune) → CloseDaemon
//
// The stable chunks replay the initial template mix (no re-tune allowed),
// the reweight chunk concentrates weight on a prefix of the known templates
// (must be answered by revising the retained pool), the shift chunk brings
// templates the pool has never costed (must be answered by a fresh pass).

// driftThreshold splits the two regimes with margin: stable chunks replay
// the initial mix and score ≈ 0, the injected reweight and shift chunks
// ≥ 0.2.
const driftThreshold = 0.1

// Epoch names of a pass, in order; stable epochs repeat.
const (
	epInitial  = "initial"
	epStable   = "stable"
	epReweight = "reweight"
	epShift    = "shift"
	epFeedback = "feedback"
)

type chunk struct {
	name   string
	body   string
	events int
}

type daemonEnv struct {
	*sessionEnv
	chunks   []chunk // one pass's IngestTrace sequence
	stateDir string
}

// renderChunks draws the pass's trace chunks. setquery generates templates
// sequentially, so a smaller template count under the same seed is a strict
// prefix — the reweight chunk — and another seed is a new template set —
// the shift chunk.
//
// The run's seed shuffles the arrival order of the stable and reweight
// chunks' events, and nothing else. Those chunks only fold weight into
// representatives the compressor already holds, so the order changes what
// the ingest path streams but not what any re-tune sees. Anything that does
// reach a re-tune — a 1% jitter on the event weights was tried — flips the
// storage-constrained search between designs whose improvement differs by
// 8 points and whose allocation by 40%, seed to seed.
func renderChunks(b *backend, sc scale, seed int64) ([]chunk, error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := sc.daemonTemplates / 4
	if prefix < 1 {
		prefix = 1
	}
	specs := []struct {
		name      string
		events    int
		templates int
		tseed     int64
		times     int
		shuffle   bool
	}{
		{epInitial, sc.daemonInitial, sc.daemonTemplates, templateSeed, 1, false},
		{epStable, sc.daemonChunk, sc.daemonTemplates, templateSeed, sc.daemonStable, true},
		{epReweight, sc.daemonChunk, prefix, templateSeed, 1, true},
		{epShift, sc.daemonChunk, sc.daemonTemplates, shiftTemplateSeed, 1, false},
	}
	var out []chunk
	for _, s := range specs {
		lines, err := traceLines(setquery.Trace(b.cat, s.events, s.templates, s.tseed))
		if err != nil {
			return nil, err
		}
		if s.shuffle {
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		}
		c := chunk{s.name, strings.Join(lines, "\n") + "\n", len(lines)}
		for i := 0; i < s.times; i++ {
			out = append(out, c)
		}
	}
	return out, nil
}

// epochTiming is one epoch of a pass as the client saw it.
type epochTiming struct {
	name   string
	wall   time.Duration
	events int
}

// passResult is one pass: its epochs and what its re-tunes reported.
type passResult struct {
	epochs      []epochTiming
	calls       int64
	churn       int
	retunes     int
	improvement float64 // of the final (feedback) proposal
	daemon      *service.Daemon
	err         error
}

func (p *passResult) epoch(name string) []float64 {
	var out []float64
	for _, e := range p.epochs {
		if e.name == name {
			out = append(out, seconds(e.wall))
		}
	}
	return out
}

// pass runs one daemon pass against the named backend. Every structural
// claim of the scenario is asserted; the first violation fails the pass.
func (e *daemonEnv) pass(database string, par int, tr *tracer) (p passResult) {
	mgr := e.svc.mgr
	fail := func(format string, args ...any) passResult {
		p.err = fmt.Errorf(format, args...)
		return p
	}
	timed := func(name string, events int, fn func() error) error {
		if tr != nil {
			prev := tr.currentParent()
			span := tr.begin("service.epoch."+name, prev)
			tr.setParent(span)
			defer func() {
				tr.end(span)
				tr.setParent(prev)
			}()
		}
		t0 := time.Now()
		err := fn()
		p.epochs = append(p.epochs, epochTiming{name, time.Since(t0), events})
		return err
	}
	record := func(d *service.Delta) {
		p.calls += d.WhatIfCalls
		p.churn += d.Churn
		p.retunes++
		p.improvement = d.Improvement
	}

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	d, err := mgr.CreateDaemon(service.DaemonRequest{
		Database: database,
		Options:  e.b.wireOptions(par),
		Drift:    service.DaemonDriftOptions{Threshold: driftThreshold},
	})
	if err != nil {
		return fail("create daemon: %v", err)
	}
	defer mgr.CloseDaemon(d.ID())
	p.daemon = d

	for _, c := range e.chunks {
		var res *service.EpochResult
		if err := timed(c.name, c.events, func() (err error) {
			res, err = mgr.IngestTrace(ctx, d.ID(), strings.NewReader(c.body))
			return err
		}); err != nil {
			return fail("%s epoch: %v", c.name, err)
		}
		if int(res.ChunkEvents) != c.events {
			return fail("%s epoch ingested %d events, chunk has %d", c.name, res.ChunkEvents, c.events)
		}
		switch c.name {
		case epInitial:
			if !res.Retuned || res.Trigger != service.TriggerInitial {
				return fail("initial epoch did not run the initial tune: %+v", *res)
			}
		case epStable:
			if res.Retuned || res.Score >= driftThreshold {
				return fail("stable epoch re-tuned or scored %.3f ≥ %.2f", res.Score, driftThreshold)
			}
		case epReweight:
			if !res.Retuned || res.Trigger != service.TriggerDrift || res.Path != service.PathRevise {
				return fail("reweight epoch not answered on the revise path: retuned=%v trigger=%s path=%s score=%.3f",
					res.Retuned, res.Trigger, res.Path, res.Score)
			}
		case epShift:
			if !res.Retuned || res.Trigger != service.TriggerDrift || res.Path != service.PathFresh {
				return fail("shift epoch not answered on the fresh path: retuned=%v trigger=%s path=%s score=%.3f",
					res.Retuned, res.Trigger, res.Path, res.Score)
			}
		}
		if res.Delta != nil {
			record(res.Delta)
		}
	}

	// DBA in the loop: accept the top proposed structure, veto the
	// runner-up, and force a re-tune under the updated feedback.
	proposed := d.Snapshot().Proposed
	if len(proposed) == 0 {
		return fail("no outstanding proposal to give feedback on")
	}
	fb := service.FeedbackRequest{Accept: []string{proposed[0].Key}, Retune: true}
	if len(proposed) > 1 {
		fb.Veto = []string{proposed[1].Key}
	}
	var fres *service.FeedbackResult
	if err := timed(epFeedback, 0, func() (err error) {
		fres, err = mgr.Feedback(ctx, d.ID(), fb)
		return err
	}); err != nil {
		return fail("feedback epoch: %v", err)
	}
	if fres.Delta == nil || fres.Delta.Trigger != service.TriggerFeedback {
		return fail("feedback did not re-tune")
	}
	record(fres.Delta)
	for _, en := range append(append([]service.DeltaEntry(nil), fres.Delta.Create...), fres.Delta.Drop...) {
		if en.Key == fb.Accept[0] {
			return fail("accepted structure %s churned in the feedback delta", en.Key)
		}
	}
	for _, en := range fres.Delta.Create {
		if len(fb.Veto) > 0 && en.Key == fb.Veto[0] {
			return fail("vetoed structure %s re-proposed", en.Key)
		}
	}
	for _, en := range d.Snapshot().Proposed {
		if len(fb.Veto) > 0 && en.Key == fb.Veto[0] {
			return fail("vetoed structure %s still proposed", en.Key)
		}
	}
	if p.improvement <= 0 || p.improvement >= 1 {
		return fail("final improvement %.6f outside (0,1)", p.improvement)
	}
	return p
}

// setupDaemon builds the backend and service with a state directory
// attached, renders the chunks, and warms the backend with one tune over
// both template sets of a pass, which creates every statistic the measured
// passes ask for.
func setupDaemon(cfg runConfig, tr *tracer) (*daemonEnv, error) {
	se, err := newSessionEnv("synt1", cfg, 2, tr)
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{sessionEnv: se, stateDir: filepath.Join(cfg.outDir, fmt.Sprintf("state-%d", os.Getpid()))}
	if e.chunks, err = renderChunks(e.b, cfg.sc, cfg.seed); err != nil {
		e.stop()
		return nil, err
	}
	if err := e.svc.mgr.SetStateDir(e.stateDir); err != nil {
		e.stop()
		return nil, err
	}
	database, par := e.b.name, cfg.par
	if tr != nil {
		defer tr.endOp(tr.beginOp("warmup"))
		database, par = e.tracedName(), 1
	}
	// One throwaway daemon ingests the initial and the shift chunk as a
	// single trace, so its first tune costs every template of a pass.
	if err := e.warm(database, par, e.chunks[0].body+e.chunks[len(e.chunks)-1].body); err != nil {
		e.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// warm tunes one trace in a throwaway daemon.
func (e *daemonEnv) warm(database string, par int, trace string) error {
	mgr := e.svc.mgr
	d, err := mgr.CreateDaemon(service.DaemonRequest{Database: database, Options: e.b.wireOptions(par),
		Drift: service.DaemonDriftOptions{Threshold: driftThreshold}})
	if err != nil {
		return err
	}
	defer mgr.CloseDaemon(d.ID())
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, err = mgr.IngestTrace(ctx, d.ID(), strings.NewReader(trace))
	return err
}

// stop also removes the state directory.
func (e *daemonEnv) stop() {
	e.sessionEnv.stop()
	os.RemoveAll(e.stateDir)
}

func runDaemon(cfg runConfig) (*runResult, error) {
	if cfg.traced {
		return runDaemonTraced(cfg)
	}
	r := newResult(wlDaemon, cfg.seed, false)
	env, setups, err := repeatSetup(cfg.sc.setups, func() (*daemonEnv, error) { return setupDaemon(cfg, nil) })
	if err != nil {
		return nil, err
	}
	defer env.stop()

	var initial, reweight, shift, feedback, imps []float64
	var stableWall, wall time.Duration
	var stableEvents, retunes int
	var stableRates []float64
	var calls int64
	var meter allocMeter
	for i := 0; i < cfg.sc.daemonPasses; i++ {
		meter.begin()
		p := env.pass(env.b.name, cfg.par, nil)
		meter.end()
		r.op(p.err == nil)
		if p.err != nil {
			env.chk.failf("pass %d: %v", i, p.err)
			continue
		}
		initial = append(initial, p.epoch(epInitial)...)
		reweight = append(reweight, p.epoch(epReweight)...)
		shift = append(shift, p.epoch(epShift)...)
		for _, s := range p.epoch(epFeedback) {
			feedback = append(feedback, 1000*s)
		}
		for _, ep := range p.epochs {
			wall += ep.wall
			if ep.name == epStable {
				stableWall += ep.wall
				stableEvents += ep.events
				stableRates = append(stableRates, float64(ep.events)/seconds(ep.wall))
			}
		}
		imps = append(imps, p.improvement)
		calls += p.calls
		retunes += p.retunes
	}
	r.Failures = env.chk.failures
	r.Ops["passes"], r.Ops["retunes"], r.Ops["clients"] = len(initial), retunes, 1
	r.Ops["events_per_pass"] = passEvents(env.chunks)

	r.Raw["setup_s"], r.Raw["initial_s"], r.Raw["reweight_s"], r.Raw["shift_s"], r.Raw["feedback_ms"] = setups, initial, reweight, shift, feedback
	r.Raw["stable_events_per_s"] = stableRates
	r.set(mSetup, "s", median(setups), len(setups))
	r.set(mTuneP50, "s", median(initial), len(initial))
	r.set(mReviseP50, "ms", median(feedback), len(feedback))
	r.set(mRetuneRevise, "s", median(reweight), len(reweight))
	r.set(mRetuneFresh, "s", median(shift), len(shift))
	if wall > 0 {
		r.set(mSessionsMin, "1/min", 60*float64(retunes)/seconds(wall), retunes)
	}
	if stableWall > 0 {
		r.set(mIngest, "events/s", float64(stableEvents)/seconds(stableWall), stableEvents)
	}
	r.set(mWhatIfCalls, "count", float64(calls), 0)
	r.set(mImprovement, "%", 100*mean(imps), len(imps))
	r.set(mAllocMBPerOp, "MB", meter.mbPerOp(len(initial)), len(initial))
	return r, nil
}

func passEvents(chunks []chunk) int {
	n := 0
	for _, c := range chunks {
		n += c.events
	}
	return n
}

// runDaemonTraced is the traced run: a reference pass on the raw backend, a
// traced pass on its decorated twin (epoch spans with the decorator's call
// spans under them), and one more pass with the state directory detached,
// whose faster epochs price persistence — all at Parallelism 1.
func runDaemonTraced(cfg runConfig) (*runResult, error) {
	r := newResult(wlDaemon, cfg.seed, true)
	tr := newTracer()
	env, err := setupDaemon(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer env.stop()

	var meter allocMeter
	meter.begin()
	cache := newCacheMeter(env.svc.mgr)
	ref := env.pass(env.b.name, 1, nil)
	opSpan := tr.beginOp("op")
	acc := &tracedAcc{ops: map[int]bool{tr.currentOp(): true}}
	cache.begin()
	traced := env.pass(env.tracedName(), 1, tr)
	cache.end()
	tr.endOp(opSpan)
	meter.sampleNow()
	cache.report(r)

	ok := ref.err == nil && traced.err == nil
	for _, p := range []passResult{ref, traced} {
		if p.err != nil {
			env.chk.failf("traced run pass: %v", p.err)
		}
	}
	if ok && ref.calls != traced.calls {
		env.chk.failf("decorator not transparent: %d what-if calls traced vs %d untraced", traced.calls, ref.calls)
		ok = false
	}
	r.op(ok)
	if ok {
		acc.refTunes, acc.trTunes = ref.epoch(epInitial), traced.epoch(epInitial)
		for _, ep := range traced.epochs {
			acc.sessionNS += int64(ep.wall)
		}
		acc.closure = []float64{100 * closureError(tr.snapshot(), opSpan)}

		if err := env.svc.mgr.SetStateDir(""); err != nil {
			return nil, err
		}
		volatile := env.pass(env.b.name, 1, nil)
		r.op(volatile.err == nil)
		if volatile.err != nil {
			env.chk.failf("pass without state dir: %v", volatile.err)
		} else {
			// Stable epochs are ingest plus the per-epoch state write and
			// nothing else, so their difference prices persistence.
			setLayer(r, "service.persist_overhead_ms", 1000*(median(ref.epoch(epStable))-median(volatile.epoch(epStable))), len(ref.epoch(epStable)))
		}
		stable := traced.epoch(epStable)
		setLayer(r, "service.stable_epoch_ms", 1000*median(stable), len(stable))
		setLayer(r, "service.feedback_ms", 1000*median(traced.epoch(epFeedback)), 1)
		setLayer(r, "service.delta_churn", float64(traced.churn), 0)

		// A closed daemon stays listed for inspection.
		d := traced.daemon
		measureExports(r, tr, env.svc, "/daemons/"+d.ID(), "/timeline", d.Journal().Len(), d.Trace().SpanCount())
	}

	w0, err := workload.ReadTrace(strings.NewReader(env.chunks[0].body))
	if err != nil {
		return nil, err
	}
	other, err := workload.ReadTrace(strings.NewReader(env.chunks[len(env.chunks)-1].body))
	if err != nil {
		return nil, err
	}
	return r, finishTraced(r, tr, env.sessionEnv, acc, cfg, w0, other, &meter)
}
