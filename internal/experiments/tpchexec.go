package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/tpch"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// Sec72Result reproduces §7.2: evaluation on the TPC-H benchmark workload.
// The paper (at 10GB) reports an expected (optimizer-estimated) improvement
// of 88% and an actual improvement in execution time of 83% — the point
// being that the two track each other closely without being equal. Wall
// clock is noisy at toy scale, so the engine's physical work over the same
// queries (RawStats, TunedStats: one warm-up run each) is reported beside
// it; those counters repeat exactly run to run.
type Sec72Result struct {
	ExpectedImprovement float64
	ActualImprovement   float64
	RawExecTime         time.Duration
	TunedExecTime       time.Duration
	RawStats            engine.ExecStats
	TunedStats          engine.ExecStats
	Structures          int
	PerQuery            []Sec72Query
}

// Sec72Query is one query's before/after actual runtime.
type Sec72Query struct {
	Query     int
	RawTime   time.Duration
	TunedTime time.Duration
}

// Sec72 tunes the 22-query workload (storage budget 3× raw data), then
// implements the recommendation in the engine and measures warm-run
// execution times under both configurations. Per the paper's methodology,
// each query runs WarmRuns times; the highest and lowest readings are
// discarded and the rest averaged.
func Sec72(cfg Config) (*Sec72Result, error) {
	srv, db, err := newTPCHServer(cfg.TPCHExecSF, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := tpch.Workload()
	raw := tpch.ConstraintConfig(srv.Cat)

	opts := cfg.tuneOpts(srv, core.FeatureAll)
	opts.BaseConfig = raw
	rec, err := core.Tune(srv, w, opts)
	if err != nil {
		return nil, err
	}

	res := &Sec72Result{
		ExpectedImprovement: rec.Improvement,
		Structures:          len(rec.NewStructures),
	}

	rawPrep, err := db.Materialize(raw)
	if err != nil {
		return nil, err
	}
	tunedPrep, err := db.Materialize(rec.Config)
	if err != nil {
		return nil, err
	}

	stmts := make([]sqlparser.Statement, 0, len(w.Events))
	for _, e := range w.Events {
		stmts = append(stmts, e.Stmt)
	}
	for qi, stmt := range stmts {
		rawT, rawS, err := warmRunTime(rawPrep, stmt, cfg.WarmRuns)
		if err != nil {
			return nil, fmt.Errorf("Q%d raw: %w", qi+1, err)
		}
		tunedT, tunedS, err := warmRunTime(tunedPrep, stmt, cfg.WarmRuns)
		if err != nil {
			return nil, fmt.Errorf("Q%d tuned: %w", qi+1, err)
		}
		res.PerQuery = append(res.PerQuery, Sec72Query{Query: qi + 1, RawTime: rawT, TunedTime: tunedT})
		res.RawExecTime += rawT
		res.TunedExecTime += tunedT
		res.RawStats.Add(rawS)
		res.TunedStats.Add(tunedS)
	}
	if res.RawExecTime > 0 {
		res.ActualImprovement = 1 - float64(res.TunedExecTime)/float64(res.RawExecTime)
	}
	return res, nil
}

// warmRunTime executes the statement n times (after one warm-up run),
// discards the highest and lowest readings, and averages the rest. It also
// returns the warm-up run's physical work.
func warmRunTime(p *engine.Prepared, stmt sqlparser.Statement, n int) (time.Duration, engine.ExecStats, error) {
	if n < 3 {
		n = 3
	}
	warm, err := p.Exec(stmt)
	if err != nil {
		return 0, engine.ExecStats{}, err
	}
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := p.Exec(stmt); err != nil {
			return 0, engine.ExecStats{}, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	times = times[1 : len(times)-1] // drop lowest and highest
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(len(times)), warm.Stats, nil
}

// ScanImprovement is the tuned configuration's relative reduction of the
// rows the engine touched over the 22 queries.
func (r *Sec72Result) ScanImprovement() float64 {
	return quality(float64(r.RawStats.RowsScanned), float64(r.TunedStats.RowsScanned))
}

// String renders the §7.2 summary.
func (r *Sec72Result) String() string {
	rows := [][]string{{
		"TPC-H 22 queries",
		pct(r.ExpectedImprovement),
		pct(r.ActualImprovement),
		r.RawExecTime.Round(time.Millisecond).String(),
		r.TunedExecTime.Round(time.Millisecond).String(),
		pct(r.ScanImprovement()),
		fmt.Sprint(r.Structures),
	}}
	return renderTable("Section 7.2: TPC-H expected vs actual improvement (paper: 88% expected, 83% actual)",
		[]string{"Workload", "Expected", "Actual", "Raw exec", "Tuned exec", "Rows scanned", "#structures"}, rows)
}
