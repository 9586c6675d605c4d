package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Workload names, as committed in BENCHMARK.json.
const (
	wlSynt1  = "synt1-batch"
	wlFleet  = "tpch-fleet"
	wlPsoft  = "psoft-mixed"
	wlDaemon = "daemon-drift"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{wlSynt1, wlFleet, wlPsoft, wlDaemon}

// End-to-end metric names. Every workload reports every one of them (the
// driver's contract); README.md gives the per-workload definition.
const (
	mSetup        = "setup_s"
	mTuneP50      = "tune_p50_s"
	mSessionsMin  = "sessions_per_min"
	mReviseP50    = "revise_p50_ms"
	mIngest       = "ingest_events_per_s"
	mRetuneRevise = "retune_revise_p50_s"
	mRetuneFresh  = "retune_fresh_p50_s"
	mWhatIfCalls  = "whatif_calls"
	mImprovement  = "improvement_pct"
	mAllocMBPerOp = "alloc_mb_per_op"
)

// allWorkloadsIn stands for every workload in a layer metric's prediction.
const allWorkloadsIn = "*"

// metricDef is one BENCHMARK.json metric entry.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one BENCHMARK.json workload entry.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the harness runs from the repository root, its tests from bench/).
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", lastErr)
}

// nameRE is the metric and workload naming rule of the benchmark contract.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// move names one end-to-end metric on one workload ("*" = every workload) a
// layer metric is predicted to move.
type move struct{ Metric, Workload string }

// layerMetric is one per-layer metric of the traced run: the layer (a
// package under internal/, or runtime/trace for the harness itself), the
// unit and direction BENCHMARK.json repeats, and the interaction prediction
// written down before measuring — which end-to-end metric it should move,
// on which workload.
type layerMetric struct {
	Name   string
	Layer  string
	Unit   string
	Better string
	Moves  []move
}

func lm(name, layer, unit, better string, moves ...move) layerMetric {
	return layerMetric{Name: name, Layer: layer, Unit: unit, Better: better, Moves: moves}
}

// layerMetrics is the per-layer metric table. BENCHMARK.json's per_layer
// list carries name/unit/better only; TestSpecConsistency keeps the two in
// step and checks every Moves entry names a real metric and workload.
var layerMetrics = []layerMetric{
	lm("sqlparser.parse_us_per_stmt", "sqlparser", "us", "lower", move{mIngest, wlDaemon}),
	lm("sqlparser.signature_us_per_stmt", "sqlparser", "us", "lower", move{mIngest, wlDaemon}),

	lm("workload.stream_events_per_s", "workload", "events/s", "higher", move{mIngest, wlDaemon}),
	lm("workload.compress_ms", "workload", "ms", "lower", move{mTuneP50, wlSynt1}, move{mTuneP50, wlPsoft}),
	lm("workload.reps", "workload", "count", "lower", move{mTuneP50, wlSynt1}, move{mTuneP50, wlPsoft}),
	lm("workload.compress_ratio", "workload", "ratio", "higher", move{mTuneP50, wlSynt1}, move{mTuneP50, wlPsoft}),

	lm("whatif.calls", "whatif", "count", "lower", move{mWhatIfCalls, allWorkloadsIn}),
	lm("whatif.alternatives_calls", "whatif", "count", "lower", move{mWhatIfCalls, allWorkloadsIn}),
	lm("whatif.busy_ms", "whatif", "ms", "lower", move{mTuneP50, wlPsoft}, move{mTuneP50, wlFleet}),
	lm("whatif.busy_share", "whatif", "ratio", "lower", move{mTuneP50, wlPsoft}, move{mTuneP50, wlFleet}),
	lm("whatif.call_p50_us", "whatif", "us", "lower", move{mTuneP50, wlPsoft}, move{mTuneP50, wlFleet}),
	lm("whatif.call_p95_us", "whatif", "us", "lower", move{mTuneP50, wlPsoft}),
	lm("whatif.ensure_stats_ms", "whatif", "ms", "lower", move{mSetup, allWorkloadsIn}),
	lm("whatif.stats_created", "whatif", "count", "lower", move{mSetup, allWorkloadsIn}),

	lm("optimizer.optimize_us_per_stmt", "optimizer", "us", "lower", move{mTuneP50, wlFleet}, move{mTuneP50, wlPsoft}),
	lm("optimizer.select_us_per_replay", "optimizer", "us", "lower", move{mTuneP50, wlSynt1}, move{mReviseP50, wlSynt1}, move{mTuneP50, wlFleet}),

	lm("derive.derived_evals", "derive", "count", "higher", move{mWhatIfCalls, allWorkloadsIn}),
	lm("derive.derived_share", "derive", "ratio", "higher", move{mWhatIfCalls, allWorkloadsIn}),
	lm("derive.fallbacks.dml", "derive", "count", "lower", move{mWhatIfCalls, wlPsoft}),
	lm("derive.fallbacks.atom", "derive", "count", "lower", move{mWhatIfCalls, allWorkloadsIn}),
	lm("derive.fallbacks.atom-join", "derive", "count", "lower", move{mWhatIfCalls, wlFleet}, move{mWhatIfCalls, wlPsoft}),

	lm("core.phase.baseline-costing_ms", "core", "ms", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("core.phase.column-groups_ms", "core", "ms", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("core.phase.candidate-selection_ms", "core", "ms", "lower", move{mTuneP50, wlFleet}),
	lm("core.phase.merging_ms", "core", "ms", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("core.phase.enumeration_ms", "core", "ms", "lower", move{mTuneP50, wlSynt1}),
	lm("core.phase.drop-analysis_ms", "core", "ms", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("core.self_ms", "core", "ms", "lower", move{mTuneP50, wlSynt1}),
	lm("core.tune_direct_ms", "core", "ms", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("core.revise_direct_ms", "core", "ms", "lower", move{mReviseP50, allWorkloadsIn}, move{mRetuneRevise, wlDaemon}),
	lm("core.cache.hit", "core", "count", "higher", move{mReviseP50, allWorkloadsIn}),
	lm("core.cache.miss", "core", "count", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("core.cache.coalesced", "core", "count", "lower", move{mTuneP50, wlFleet}),
	lm("core.cache.derived", "core", "count", "higher", move{mWhatIfCalls, allWorkloadsIn}),
	lm("core.pool_bytes", "core", "bytes", "lower", move{mReviseP50, allWorkloadsIn}, move{mAllocMBPerOp, wlDaemon}),
	lm("core.pool_check_ms", "core", "ms", "lower", move{mReviseP50, allWorkloadsIn}, move{mRetuneRevise, wlDaemon}),

	lm("service.overhead_ms", "service", "ms", "lower", move{mTuneP50, wlFleet}, move{mSessionsMin, wlFleet}),
	lm("service.queue_wait_ms", "service", "ms", "lower", move{mTuneP50, wlFleet}),
	lm("service.http_create_ms", "service", "ms", "lower", move{mTuneP50, wlFleet}),
	lm("service.http_result_ms", "service", "ms", "lower", move{mSessionsMin, wlFleet}),
	lm("service.session_p95_s", "service", "s", "lower", move{mSessionsMin, wlFleet}),
	lm("service.stable_epoch_ms", "service", "ms", "lower", move{mIngest, wlDaemon}),
	lm("service.persist_overhead_ms", "service", "ms", "lower", move{mIngest, wlDaemon}, move{mRetuneFresh, wlDaemon}),
	lm("service.feedback_ms", "service", "ms", "lower", move{mReviseP50, wlDaemon}),
	lm("service.delta_churn", "service", "count", "lower", move{mRetuneRevise, wlDaemon}, move{mRetuneFresh, wlDaemon}),

	// Predicted to move nothing at 60 templates: the baseline for
	// million-template traces.
	lm("drift.score_us", "drift", "us", "lower", move{mIngest, wlDaemon}),

	lm("journal.events_per_session", "journal", "count", "lower", move{mTuneP50, wlFleet}),
	lm("journal.explain_ms", "journal", "ms", "lower", move{mSessionsMin, wlFleet}),
	lm("obs.spans_per_session", "obs", "count", "lower", move{mTuneP50, wlFleet}, move{mAllocMBPerOp, allWorkloadsIn}),
	lm("obs.trace_export_ms", "obs", "ms", "lower", move{mSessionsMin, wlFleet}),

	lm("runtime.peak_heap_mb", "runtime", "MB", "lower", move{mAllocMBPerOp, allWorkloadsIn}),
	lm("runtime.num_gc", "runtime", "count", "lower", move{mAllocMBPerOp, allWorkloadsIn}),

	// The cost of tracing itself and the self-time closure of the span tree;
	// they qualify the other layer numbers rather than predict a move.
	lm("trace.overhead_pct", "trace", "%", "lower", move{mTuneP50, allWorkloadsIn}),
	lm("trace.self_time_closure_pct", "trace", "%", "lower", move{mTuneP50, allWorkloadsIn}),
}
