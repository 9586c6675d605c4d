package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/tpch"
	"repro/internal/service"
	"repro/internal/workload"
)

// tpch-fleet: concurrent clients tune short, join-heavy TPC-H sessions
// against one shared backend over real HTTP on loopback. Each op is
//
//	POST /sessions → stream GET /sessions/{id}/events to the terminal state
//	→ GET /sessions/{id} → PATCH /sessions/{id} (storage halved) → stream its
//	events
//
// in a closed loop: a client submits its next session when the previous one
// has finished.

type fleetEnv struct {
	*sessionEnv
	variants [][]workload.Statement
}

// httpSession is one op as the HTTP client saw it.
type httpSession struct {
	id, revID string
	tune, rev sessionOutcome // latency, pt and span are filled; rec by resolve
	create    time.Duration  // POST /sessions round trip
	result    time.Duration  // GET /sessions/{id} round trip
	err       error
}

// wireEvent decodes both line shapes of the events stream: progress events
// and the closing session snapshot (which alone carries an id).
type wireEvent struct {
	ID       string        `json:"id"`
	State    service.State `json:"state"`
	Progress struct {
		Phase core.Phase `json:"phase"`
	} `json:"progress"`
}

func (e *fleetEnv) postJSON(method, path string, body any, want int, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, e.svc.url+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.svc.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// stream follows a session's NDJSON event stream to its end — the service
// closes it with the terminal snapshot — stamping events on receipt when a
// phase tracker is attached. It returns the terminal state.
func (e *fleetEnv) stream(id string, pt *phaseTracker) (service.State, error) {
	req, err := http.NewRequest(http.MethodGet, e.svc.url+"/sessions/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	client := *e.svc.client
	client.Timeout = opTimeout
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events of %s: status %d", id, resp.StatusCode)
	}
	var last wireEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events of %s: %w", id, err)
		}
		if pt != nil {
			pt.observe(ev.State, ev.Progress.Phase)
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events of %s: %w", id, err)
	}
	if last.ID != id || !last.State.Terminal() {
		return last.State, fmt.Errorf("events of %s ended without the terminal snapshot", id)
	}
	return last.State, nil
}

// followed runs submit and follows the created session to its terminal
// state, as one traced session span when tr is set.
func (e *fleetEnv) followed(tr *tracer, spanName string, submit func() (string, error)) (string, sessionOutcome, time.Duration) {
	st := beginSession(tr, spanName)
	out := sessionOutcome{pt: st.pt, span: st.span}
	id, err := submit()
	submitted := time.Since(st.t0)
	if err == nil {
		var state service.State
		if state, err = e.stream(id, st.pt); err == nil && state != service.StateDone {
			err = fmt.Errorf("session %s ended %s", id, state)
		}
	}
	out.latency, out.err = time.Since(st.t0), err
	st.close()
	return id, out, submitted
}

// session runs one op against the named backend.
func (e *fleetEnv) session(database string, stmts []workload.Statement, par int, tr *tracer) httpSession {
	var hs httpSession
	var snap service.Snapshot
	hs.id, hs.tune, hs.create = e.followed(tr, "service.session", func() (string, error) {
		body := service.CreateRequest{Database: database, Statements: stmts, Options: e.b.wireOptions(par)}
		err := e.postJSON(http.MethodPost, "/sessions", body, http.StatusCreated, &snap)
		return snap.ID, err
	})
	if hs.err = hs.tune.err; hs.err != nil {
		return hs
	}
	t0 := time.Now()
	resp, err := e.svc.client.Get(e.svc.url + "/sessions/" + hs.id)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	hs.result = time.Since(t0)
	if hs.err = err; err != nil {
		return hs
	}
	half := e.b.halfMB()
	hs.revID, hs.rev, _ = e.followed(tr, "service.revise", func() (string, error) {
		var child service.Snapshot
		err := e.postJSON(http.MethodPatch, "/sessions/"+hs.id, service.ReviseRequest{StorageMB: &half}, http.StatusCreated, &child)
		return child.ID, err
	})
	hs.err = hs.rev.err
	return hs
}

// resolve looks the op's two sessions up in the manager — possible because
// load generator and service share a process — so the checker sees the full
// recommendations, not their wire summaries.
func (e *fleetEnv) resolve(hs *httpSession) {
	for _, p := range []struct {
		id  string
		out *sessionOutcome
	}{{hs.id, &hs.tune}, {hs.revID, &hs.rev}} {
		if p.id == "" {
			continue
		}
		if s, ok := e.svc.mgr.Get(p.id); ok {
			p.out.sess = s
			p.out.rec, _ = s.Result()
		}
	}
}

func (e *fleetEnv) check(label, variant string, hs *httpSession) bool {
	if hs.err != nil {
		e.chk.failf("%s: %v", label, hs.err)
		return false
	}
	e.resolve(hs)
	if hs.tune.sess == nil || hs.rev.sess == nil {
		e.chk.failf("%s: session not found in the manager", label)
		return false
	}
	return batchOp{hs.tune, hs.rev}.check(e.sessionEnv, label, variant)
}

// setupFleet builds the shared backend and warms it: one session over all
// 22 queries, then one per variant, so every statistic the measured sessions
// ask for already exists and concurrent sessions cannot race to create one.
func setupFleet(cfg runConfig, tr *tracer) (*fleetEnv, error) {
	se, err := newSessionEnv("tpch", cfg, cfg.clients, tr)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{sessionEnv: se, variants: fleetVariants(cfg.sc.fleetVariants, cfg.sc.fleetQueries, cfg.seed)}
	database := e.b.name
	if tr != nil {
		defer tr.endOp(tr.beginOp("warmup"))
		database = e.tracedName()
	}
	var all []workload.Statement
	for _, q := range tpch.Queries() {
		all = append(all, workload.Statement{SQL: q, Weight: 1})
	}
	for _, stmts := range append([][]workload.Statement{all}, e.variants...) {
		if hs := e.session(database, stmts, 1, nil); hs.err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up session: %w", hs.err)
		}
	}
	return e, nil
}

func runFleet(cfg runConfig) (*runResult, error) {
	if cfg.traced {
		return runFleetTraced(cfg)
	}
	r := newResult(wlFleet, cfg.seed, false)
	env, setups, err := repeatSetup(cfg.sc.setups, func() (*fleetEnv, error) { return setupFleet(cfg, nil) })
	if err != nil {
		return nil, err
	}
	defer env.stop()

	// Each client cycles the variants from its own offset, so concurrent
	// sessions tune different query sets most of the time.
	perClient := cfg.sc.fleetCycles * len(env.variants)
	done := make([][]httpSession, cfg.clients)
	var meter allocMeter
	var wg sync.WaitGroup
	meter.begin()
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := c * len(env.variants) / cfg.clients
			for i := 0; i < perClient; i++ {
				v := (i + offset) % len(env.variants)
				done[c] = append(done[c], env.session(env.b.name, env.variants[v], 1, nil))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	meter.end()

	var tunes, revises, imps []float64
	var calls int64
	for c := range done {
		offset := c * len(env.variants) / cfg.clients
		for i := range done[c] {
			hs := &done[c][i]
			v := (i + offset) % len(env.variants)
			ok := env.check(fmt.Sprintf("client %d session %d", c, i), fmt.Sprint(v), hs)
			r.op(ok)
			if !ok {
				continue
			}
			tunes = append(tunes, seconds(hs.tune.latency))
			revises = append(revises, millis(hs.rev.latency))
			imps = append(imps, hs.tune.rec.Improvement)
			calls += hs.tune.rec.WhatIfCalls + hs.rev.rec.WhatIfCalls
		}
	}
	r.Failures = env.chk.failures
	r.Ops["tune"], r.Ops["revise"], r.Ops["clients"] = len(tunes), len(revises), cfg.clients
	batchEndToEnd(r, setups, tunes, revises, imps, calls, wall, len(tunes)*len(env.variants[0]), &meter)
	// Throughput and the statement rate are aggregates over the concurrent
	// clients' shared wall clock, not over summed latencies.
	r.set(mIngest, "events/s", float64(len(tunes)*len(env.variants[0]))/seconds(wall), len(tunes))
	return r, nil
}

// runFleetTraced is the traced run: one client, per variant a reference
// session on the raw backend and a traced one on its decorated twin.
func runFleetTraced(cfg runConfig) (*runResult, error) {
	r := newResult(wlFleet, cfg.seed, true)
	tr := newTracer()
	env, err := setupFleet(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer env.stop()

	var meter allocMeter
	meter.begin()
	cache := newCacheMeter(env.svc.mgr)
	acc := &tracedAcc{ops: map[int]bool{}}
	var creates, results []float64
	for v, stmts := range env.variants {
		ref := env.session(env.b.name, stmts, 1, nil)
		opSpan := tr.beginOp("op")
		acc.ops[tr.currentOp()] = true
		cache.begin()
		top := env.session(env.tracedName(), stmts, 1, tr)
		cache.end()
		tr.endOp(opSpan)
		meter.sampleNow()

		label := fmt.Sprintf("traced session %d", v)
		ok := env.check(label+" (reference)", fmt.Sprint(v), &ref) && env.check(label, fmt.Sprint(v), &top) &&
			acc.pair(env.sessionEnv, tr, label, ref.tune, top.tune, &top.rev)
		r.op(ok)
		if ok {
			creates = append(creates, millis(top.create))
			results = append(results, millis(top.result))
		}
	}
	cache.report(r)
	setLayer(r, "service.http_create_ms", median(creates), len(creates))
	w0, err := workload.FromStatements(env.variants[0])
	if err != nil {
		return nil, err
	}
	other, err := workload.FromStatements(env.variants[len(env.variants)-1])
	if err != nil {
		return nil, err
	}
	if err := finishTraced(r, tr, env.sessionEnv, acc, cfg, w0, other, &meter); err != nil {
		return nil, err
	}
	if len(results) > 0 {
		setLayer(r, "service.http_result_ms", median(results), len(results))
	}
	return r, nil
}
