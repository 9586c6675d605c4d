package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/workload"
)

// opTimeout fails an op that has not reached a terminal state.
const opTimeout = 60 * time.Second

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes (0 when it is
	// a plain count or ratio).
	Samples int `json:"samples,omitempty"`
}

// runResult is the outcome of one workload run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Ops       map[string]int         `json:"ops"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Raw holds the per-op samples behind the timed metrics, in op order.
	Raw map[string][]float64 `json:"raw,omitempty"`
}

func newResult(name string, seed int64, traced bool) *runResult {
	return &runResult{Workload: name, Seed: seed, Traced: traced,
		Ops: map[string]int{}, Metrics: map[string]metricValue{}, Raw: map[string][]float64{}}
}

func (r *runResult) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples}
}

// op counts one attempted op; ok=false counts it as failed.
func (r *runResult) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed   int64
	sc     scale
	traced bool
	outDir string
	// par is the per-session parallelism of the untraced run (nproc);
	// traced runs use 1.
	par int
	// clients is the fleet's concurrent client count (≤ nproc).
	clients int
}

// allocMeter sums runtime.MemStats.TotalAlloc over the intervals it is
// running, so correctness checks between ops are not billed to the ops.
// It also tracks the peak heap seen at its sample points.
type allocMeter struct {
	total    uint64
	start    uint64
	peakHeap uint64
	gcStart  uint32
	gcEnd    uint32
	started  bool
}

func (a *allocMeter) begin() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.start = m.TotalAlloc
	if !a.started {
		a.started = true
		a.gcStart = m.NumGC
	}
	a.sample(&m)
}

func (a *allocMeter) end() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.total += m.TotalAlloc - a.start
	a.gcEnd = m.NumGC
	a.sample(&m)
}

// sampleNow takes a heap sample between begin and end.
func (a *allocMeter) sampleNow() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.sample(&m)
}

func (a *allocMeter) sample(m *runtime.MemStats) {
	if m.HeapAlloc > a.peakHeap {
		a.peakHeap = m.HeapAlloc
	}
}

func (a *allocMeter) mbPerOp(ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(a.total) / (1 << 20) / float64(ops)
}

// phaseTracker turns a session's receipt-stamped progress events into
// spans: a queue-wait span from submit to the first running event, then one
// span per pipeline phase, with the decorator's call spans under the phase
// that issued them. Events are only noted while the session runs; finish
// builds the spans once it has ended and every call is known, so that a
// boundary stamped while a call was in flight can be moved off that call and
// the spans nest properly.
type phaseTracker struct {
	tr        *tracer
	session   int
	submitted int64
	running   bool
	curPhase  core.Phase
	marks     []phaseMark
	queueWait time.Duration
	phases    map[core.Phase]time.Duration
}

// phaseMark is one boundary: at `at` the session was seen to enter phase
// (or, for "", to be between phases: just running, or done).
type phaseMark struct {
	at    int64
	phase core.Phase
}

func newPhaseTracker(tr *tracer, sessionSpan int) *phaseTracker {
	return &phaseTracker{tr: tr, session: sessionSpan, submitted: tr.now(), phases: map[core.Phase]time.Duration{}}
}

func (p *phaseTracker) observe(state service.State, phase core.Phase) {
	now := p.tr.now()
	if !p.running && state != service.StatePending {
		p.running = true
		p.marks = append(p.marks, phaseMark{at: now})
	}
	if !p.running || phase == p.curPhase {
		return
	}
	p.curPhase = phase
	if phase == core.PhaseDone || state.Terminal() {
		phase = ""
	}
	p.marks = append(p.marks, phaseMark{now, phase})
}

// finish records the spans of the ended session. The first running event
// can reach the client after the session issued its first calls (over HTTP
// it waits for two round trips), so the queue wait ends no later than the
// first call began; any other boundary that fell inside a call moves to the
// end of that call. Calls are then re-parented from the session span to the
// phase they began in.
func (p *phaseTracker) finish() {
	if len(p.marks) == 0 {
		return
	}
	end := p.tr.now()
	calls := p.tr.children(p.session)
	if len(calls) > 0 && calls[0].Start < p.marks[0].at {
		p.marks[0].at = calls[0].Start
	}
	for i := range p.marks[1:] {
		m := &p.marks[i+1]
		for _, c := range calls {
			if c.Start < m.at && m.at < c.End {
				m.at = c.End
			}
		}
	}
	p.queueWait = time.Duration(p.marks[0].at - p.submitted)
	p.tr.add("service.queue_wait", p.session, p.submitted, p.marks[0].at)
	for i, m := range p.marks {
		if m.phase == "" {
			continue
		}
		until := end
		if i+1 < len(p.marks) {
			until = p.marks[i+1].at
		}
		id := p.tr.add("core.phase."+string(m.phase), p.session, m.at, until)
		p.phases[m.phase] += time.Duration(until - m.at)
		for _, c := range calls {
			if m.at <= c.Start && c.Start < until {
				p.tr.reparent(c.ID, id)
			}
		}
	}
}

// sessionOutcome is one finished session as the harness saw it.
type sessionOutcome struct {
	sess    *service.Session
	rec     *core.Recommendation
	err     error
	latency time.Duration
	pt      *phaseTracker // traced sessions only
	span    int
}

// sessionStart is an op in flight: its submit time and, when tracing, the
// session span (opened before the submit, so nothing the session does can
// precede it) with the phase tracker that fills it.
type sessionStart struct {
	tr   *tracer
	t0   time.Time
	prev int
	span int
	pt   *phaseTracker
}

func beginSession(tr *tracer, spanName string) sessionStart {
	st := sessionStart{tr: tr}
	if tr != nil {
		st.prev = tr.currentParent()
		st.span = tr.begin(spanName, st.prev)
		tr.setParent(st.span)
		st.pt = newPhaseTracker(tr, st.span)
	}
	st.t0 = time.Now()
	return st
}

// close ends a traced op's session span: the phase spans are built, the span
// closed and the previous parent restored.
func (st sessionStart) close() {
	if st.tr != nil {
		st.pt.finish()
		st.tr.end(st.span)
		st.tr.setParent(st.prev)
	}
}

// await waits for the submitted session to reach a terminal state. When
// tracing it subscribes to the session's events and stamps them on receipt.
func (st sessionStart) await(sess *service.Session, err error) sessionOutcome {
	out := sessionOutcome{sess: sess, pt: st.pt, span: st.span}
	defer st.close()
	if err != nil {
		out.err, out.latency = err, time.Since(st.t0)
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if st.tr != nil {
		hist, live, unsub := sess.Subscribe()
		for _, e := range hist {
			st.pt.observe(e.State, e.Progress.Phase)
		}
	watch:
		for {
			select {
			case e, open := <-live:
				if !open {
					break watch
				}
				st.pt.observe(e.State, e.Progress.Phase)
			case <-ctx.Done():
				break watch
			}
		}
		unsub()
	}
	werr := sess.Wait(ctx)
	out.latency = time.Since(st.t0)
	if werr != nil {
		sess.Cancel()
		out.err = fmt.Errorf("session %s timed out after %s", sess.ID(), opTimeout)
		return out
	}
	out.rec, out.err = sess.Result()
	if out.err == nil && sess.State() != service.StateDone {
		out.err = fmt.Errorf("session %s ended %s", sess.ID(), sess.State())
	}
	return out
}

// tuneSession submits w to the named backend through the programmatic API
// and waits for the terminal state.
func tuneSession(svc *serviceEnv, backendName string, w *workload.Workload, opts core.Options, tr *tracer) sessionOutcome {
	st := beginSession(tr, "service.session")
	return st.await(svc.mgr.Create(service.Request{Backend: backendName, Workload: w, Options: opts}))
}

// reviseSession revises a finished session under a new storage budget.
func reviseSession(svc *serviceEnv, parent *service.Session, storageMB int64, tr *tracer) sessionOutcome {
	st := beginSession(tr, "service.revise")
	return st.await(svc.mgr.Revise(parent.ID(), service.ReviseRequest{StorageMB: &storageMB}))
}
