package service

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
)

// job is one unit of tuning work the manager runs under a worker slot: a
// fresh session, a streamed-trace session, a revision, or a daemon re-tune.
// They differ only in the closure that calls core and in whose span
// timeline and decision journal they write; everything else — the queue
// wait, the worker slot, degraded-mode bookkeeping, outcome classification
// and the lifecycle series — is runJob.
type job struct {
	// kind words the log lines ("session", "revision", "re-tune"); who is
	// the session or daemon the job belongs to.
	kind string
	who  *tuned
	// name is the root span's ("session s-0001", "retune"), in who's class
	// as category; args, when set, attaches its arguments up front.
	name string
	args func(*obs.Span)
	// started, when set, is told that the job left the queue.
	started func()
	// opts are the prepared options handed to exec with the runner's
	// progress wrapper grafted on.
	opts core.Options
	// exec calls core.TuneContext or core.Revise.
	exec func(ctx context.Context, opts core.Options) (*core.Recommendation, error)
}

// outcome is how a job ended: its terminal state, whatever recommendation
// it produced (a cancelled job may still carry a partial one), its error,
// and the wall time it held a worker slot (zero when it never got one).
type outcome struct {
	state   State
	rec     *core.Recommendation
	err     error
	elapsed time.Duration
}

// prepare grafts the server-side defaults onto a request's options — the
// one place fresh sessions, streamed sessions, revisions and daemons all get
// them: the backend's base configuration, the server-wide per-session
// parallelism budget (a request for more than the cap, or for the default
// 0 = GOMAXPROCS, is shrunk to it), the server's derive default, and the
// shared registry for the pipeline's and a session-scoped fault injector's
// series, so injected faults are visible next to the retries they cause.
// Persisted wire options keep the request's own values, so a resumed
// session or daemon follows the server defaults in force at resume time.
func (m *Manager) prepare(b *Backend, opts core.Options) core.Options {
	m.mu.Lock()
	parCap, mode := m.parCap, m.deriveDefault
	m.mu.Unlock()
	if opts.BaseConfig == nil {
		opts.BaseConfig = b.BaseConfig
	}
	if parCap > 0 {
		if opts.Parallelism <= 0 {
			opts.Parallelism = runtime.GOMAXPROCS(0)
		}
		opts.Parallelism = min(opts.Parallelism, parCap)
	}
	if opts.Derive == "" {
		opts.Derive = mode
	}
	if opts.Faults != nil {
		opts.Faults.SetMetrics(m.reg)
	}
	if opts.Metrics == nil {
		opts.Metrics = m.reg
	}
	return opts
}

// runJob executes one job: wait for a worker slot, call core, classify the
// outcome, account it. The whole run happens under the job's trace — a root
// span with a "queued" child covering the wait for a slot, and below it the
// spans core opens (phase → query → greedy step → what-if call). A job
// cancelled while queued ends cancelled without ever holding a slot.
func (m *Manager) runJob(ctx context.Context, j job) outcome {
	ctx = journal.WithContext(obs.WithTrace(ctx, j.who.trace), j.who.journal)
	ctx, root := obs.StartSpan(ctx, j.who.class, j.name)
	if j.args != nil {
		j.args(root)
	}
	out := outcome{state: StateCancelled}
	_, queued := obs.StartSpan(ctx, j.who.class, "queued")
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
		queued.End()
		out = m.tune(ctx, j)
	case <-ctx.Done():
		queued.End()
	}
	m.account(j, out)
	root.SetString("state", string(out.state))
	if out.rec != nil {
		root.SetInt("whatIfCalls", int(out.rec.WhatIfCalls)).SetFloat("improvement", out.rec.Improvement)
	}
	root.End()
	// A session's journal is complete once its one job ends: keep it at the
	// size of what it holds. A daemon's grows on through its re-tunes, which
	// would only regrow a trimmed one.
	if j.who.class == "session" {
		j.who.journal.Trim()
	}
	return out
}

// tune is the part of runJob that holds the worker slot.
func (m *Manager) tune(ctx context.Context, j job) outcome {
	if j.started != nil {
		j.started()
	}
	m.log.Info(j.kind+" started", j.who.class, j.who.id)

	// degraded flips once the job's circuit breaker opens; the transition
	// drives the dta_breaker_state gauge.
	var degraded atomic.Bool
	opts := j.opts
	progress := opts.Progress
	opts.Progress = func(p core.Progress) {
		if p.Degraded && degraded.CompareAndSwap(false, true) {
			m.gBreaker.Add(1)
			m.log.Warn(j.kind+" degraded: circuit breaker open", j.who.class, j.who.id)
		}
		if progress != nil {
			progress(p)
		}
	}
	start := time.Now()
	rec, err := j.exec(ctx, opts)
	out := outcome{state: StateDone, rec: rec, err: err, elapsed: time.Since(start)}
	if degraded.Load() {
		m.gBreaker.Add(-1)
	}
	switch {
	case err != nil && ctx.Err() != nil:
		// Cancelled before any partial result existed.
		out.state = StateCancelled
	case err != nil:
		out.state = StateFailed
	case rec.StopReason == core.StopCancelled:
		out.state = StateCancelled
	}
	return out
}

// account records one finished job in the lifecycle series and the log.
// /metrics.json reads the same series, so each event is counted once.
func (m *Manager) account(j job, out outcome) {
	m.cFinished[out.state].Inc()
	m.hDuration.Observe(out.elapsed.Seconds())
	attrs := []any{j.who.class, j.who.id, "state", string(out.state), "duration", out.elapsed}
	switch {
	case out.rec != nil:
		m.cCalls.Add(float64(out.rec.WhatIfCalls))
		m.hCalls.Observe(float64(out.rec.WhatIfCalls))
		m.hImprove.Observe(out.rec.Improvement)
		attrs = append(attrs, "whatIfCalls", out.rec.WhatIfCalls, "improvement", out.rec.Improvement)
	case out.err != nil:
		attrs = append(attrs, "error", out.err)
	}
	m.log.Info(j.kind+" finished", attrs...)
}
