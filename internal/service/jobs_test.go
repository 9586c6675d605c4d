package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// Backend health modes of faultyTuner.
const (
	healthy int32 = iota
	flaky         // every 5th backend call fails: retries absorb it, the breaker trips
	down          // every backend call fails: critical stages fail the job
)

// faultyTuner wraps a server with a switchable fault mode and a gate that
// can park the tuning goroutine at its next what-if call — the two levers
// the lifecycle-parity test needs to steer any job kind into any outcome.
type faultyTuner struct {
	core.Tuner
	mode  atomic.Int32
	calls atomic.Int64
	// When armed, the next what-if call closes reached and blocks on release.
	armed            atomic.Bool
	reached, release chan struct{}
	// armAt > 0 arms the gate at the armAt-th what-if call.
	armAt, whatifs atomic.Int64
}

func (f *faultyTuner) fail() error {
	switch f.mode.Load() {
	case down:
		return errors.New("backend down")
	case flaky:
		if f.calls.Add(1)%5 == 0 {
			return errors.New("backend hiccup")
		}
	}
	return nil
}

func (f *faultyTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	if n := f.armAt.Load(); n > 0 && f.whatifs.Add(1) == n {
		f.armed.Store(true)
	}
	if f.armed.CompareAndSwap(true, false) {
		close(f.reached)
		<-f.release
	}
	if err := f.fail(); err != nil {
		return 0, nil, err
	}
	return f.Tuner.WhatIfCost(stmt, cfg)
}

func (f *faultyTuner) EnsureStatistics(reqs []stats.Request, reduce bool) (int, error) {
	if err := f.fail(); err != nil {
		return 0, err
	}
	return f.Tuner.EnsureStatistics(reqs, reduce)
}

// lifecycle is the slice of the registry every finished job must move the
// same way, whatever kind of job it was.
type lifecycle struct {
	done, cancelled, failed float64 // dta_sessions_finished_total{state}
	durations, calls        float64 // histogram _count: one observation per job
	degraded                float64 // dta_sessions_degraded_total
	breaker                 float64 // dta_breaker_state (absolute, not a delta)
}

func readLifecycle(t *testing.T, m *service.Manager) lifecycle {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fin := promValues(t, text, "dta_sessions_finished_total")
	return lifecycle{
		done:      fin[`{state="done"}`],
		cancelled: fin[`{state="cancelled"}`],
		failed:    fin[`{state="failed"}`],
		durations: promValues(t, text, "dta_session_duration_seconds_count")[""],
		calls:     promValues(t, text, "dta_session_whatif_calls_count")[""],
		degraded:  promValues(t, text, "dta_sessions_degraded_total")[""],
		breaker:   promValues(t, text, "dta_breaker_state")[""],
	}
}

func (a lifecycle) minus(b lifecycle) lifecycle {
	return lifecycle{
		done: a.done - b.done, cancelled: a.cancelled - b.cancelled, failed: a.failed - b.failed,
		durations: a.durations - b.durations, calls: a.calls - b.calls,
		degraded: a.degraded - b.degraded, breaker: a.breaker,
	}
}

// parityTrace is an n-event trace chunk over three templates; at 120 events
// a tuning run over it issues well over the breaker's minimum sample count.
func parityTrace(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "SELECT id FROM t WHERE x = %d\n", (i*37)%2000)
		case 1:
			fmt.Fprintf(&b, "SELECT SUM(amt) FROM t WHERE a = %d\n", i%100)
		default:
			fmt.Fprintf(&b, "SELECT a, COUNT(*) FROM t WHERE x < %d GROUP BY a\n", 5+i%40)
		}
	}
	return b.String()
}

// TestJobLifecycleParity runs each of the four job kinds — fresh session,
// streamed-trace session, revision, daemon re-tune — into each of four
// outcomes and checks that the shared job runner accounts them
// identically: the same dta_sessions_finished_total{state} movement, one
// duration observation per job, one calls observation per job that produced
// a recommendation, dta_breaker_state back at 0, and the worker slot
// released (the manager has exactly one, so a follow-up session proves it).
func TestJobLifecycleParity(t *testing.T) {
	outcomes := []struct {
		name string
		mode int32
		want lifecycle
	}{
		{"success", healthy, lifecycle{done: 1, durations: 1, calls: 1}},
		{"cancelled-while-queued", healthy, lifecycle{cancelled: 1, durations: 1}},
		{"backend-failure", down, lifecycle{failed: 1, durations: 1}},
		{"degraded", flaky, lifecycle{done: 1, durations: 1, calls: 1, degraded: 1}},
	}
	kinds := []string{"create", "streaming", "revise", "daemon-retune"}
	opts := core.Options{Features: core.FeatureIndexes, NoCompression: true, SkipReports: true, Parallelism: 1}
	// Fast backoff: a critical stage rides ten attempts per call before it
	// gives up, and the failure outcome waits for that.
	opts.Retry = fault.Policy{BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond}
	wire := service.CreateOptions{Features: "IDX", SkipReports: true, Parallelism: 1}

	for _, oc := range outcomes {
		for _, kind := range kinds {
			t.Run(oc.name+"/"+kind, func(t *testing.T) {
				ft := &faultyTuner{Tuner: smallServer(t), reached: make(chan struct{}), release: make(chan struct{})}
				m := service.NewManager(1)
				if err := m.Register(&service.Backend{Name: "db", Tuner: ft, DefaultWorkload: slowWorkload(t)}); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				queued := oc.name == "cancelled-while-queued"
				wait := func(s *service.Session) {
					t.Helper()
					if err := s.Wait(ctx); err != nil {
						t.Fatalf("session %s did not finish: %v", s.ID(), err)
					}
				}

				// Kind-specific setup that is not the job under test: a
				// revision needs a completed parent, a daemon an initial tune.
				var parent *service.Session
				var daemon *service.Daemon
				switch kind {
				case "revise":
					var err error
					if parent, err = m.Create(service.Request{Options: opts}); err != nil {
						t.Fatal(err)
					}
					wait(parent)
					if parent.State() != service.StateDone {
						t.Fatalf("parent ended %s", parent.State())
					}
				case "daemon-retune":
					var err error
					if daemon, err = m.CreateDaemon(service.DaemonRequest{Options: wire}); err != nil {
						t.Fatal(err)
					}
					if queued {
						// The queued job will be a forced feedback re-tune,
						// which needs a workload to tune.
						ingest(t, m, daemon.ID(), parityTrace(120))
					}
				}

				// Occupy the only worker slot for the queued-cancel case.
				var blocker *service.Session
				if queued {
					ft.armed.Store(true)
					var err error
					if blocker, err = m.Create(service.Request{Workload: quickWorkload(t, 1), Options: opts}); err != nil {
						t.Fatal(err)
					}
					select {
					case <-ft.reached:
					case <-ctx.Done():
						t.Fatal("blocker never reached the backend")
					}
				}

				before := readLifecycle(t, m)
				ft.mode.Store(oc.mode)
				events := 120
				if oc.mode == down {
					events = 1 // a daemon backs off at the default pace
				}
				finish := func(s *service.Session, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					if queued {
						s.Cancel()
					}
					wait(s)
				}
				switch kind {
				case "create":
					finish(m.Create(service.Request{Options: opts}))
				case "streaming":
					finish(m.CreateStreaming(service.Request{Options: opts}, strings.NewReader(parityTrace(events))))
				case "revise":
					// Vetoing one recommended structure forces a real
					// replacement search: hundreds of calls the pool lacks.
					rec, _ := parent.Result()
					veto := []string{rec.NewStructures[0].Key()}
					finish(m.Revise(parent.ID(), service.ReviseRequest{Veto: veto}))
				case "daemon-retune":
					if queued {
						cctx, ccancel := context.WithCancel(ctx)
						ccancel()
						if _, err := m.Feedback(cctx, daemon.ID(), service.FeedbackRequest{Retune: true}); err == nil {
							t.Fatal("re-tune with a cancelled context succeeded")
						}
					} else if _, err := m.IngestTrace(ctx, daemon.ID(), strings.NewReader(parityTrace(events))); (err != nil) != (oc.mode == down) {
						t.Fatalf("IngestTrace error = %v under mode %d", err, oc.mode)
					}
				}
				got := readLifecycle(t, m).minus(before)
				ft.mode.Store(healthy)
				if got != oc.want {
					t.Errorf("lifecycle movement = %+v, want %+v", got, oc.want)
				}

				if blocker != nil {
					close(ft.release)
					wait(blocker)
				}
				// The slot is free again: a follow-up session gets to run.
				after, err := m.Create(service.Request{Workload: quickWorkload(t, 2), Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				wait(after)
				if after.State() != service.StateDone {
					t.Errorf("follow-up session ended %s; worker slot not released?", after.State())
				}
				if end := readLifecycle(t, m); end.breaker != 0 {
					t.Errorf("dta_breaker_state = %v after every job finished, want 0", end.breaker)
				}
			})
		}
	}
}
