// Command bench is the repository's benchmark harness: four workloads that
// drive the tuning service through its public entry points in one process,
// generate their own inputs from -seed, check every recommendation
// independently, and report end-to-end metrics (untraced run) or per-layer
// metrics from spans recorded around the calls into each layer (-traced).
// BENCHMARK.json at the repository root names the workloads, metrics and
// regression bounds; README.md explains why each is there.
//
//	go run ./bench                       # all workloads, end-to-end metrics
//	go run ./bench -traced               # all workloads, per-layer metrics + bench/out/trace-*.json
//	go run ./bench -workload tpch-fleet -seed 7
//	go run ./bench -repeat 2             # self-agreement within the BENCHMARK.json bounds
//	go run ./bench/compare A/ B/         # paired comparison of two result directories
//
// The benchmark driver runs bench/run.sh, which builds this package and
// passes --workload --seed --seconds --trace; the last line printed is then
// the driver's JSON result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// header records the conditions of a run, so two result files can be told
// apart before their numbers are compared.
type header struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Smoke      bool           `json:"smoke,omitempty"`
	Ops        map[string]int `json:"ops"`
	ClosedLoop bool           `json:"closed_loop"`
}

// resultFile is the machine-readable result of one workload run. Claim is
// always null here: the change that defines a benchmark claims no gain.
type resultFile struct {
	Header header     `json:"header"`
	Result *runResult `json:"result"`
	Claim  *string    `json:"claim"`
}

// driverLine is the last line of standard output the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// runners maps workload names to their runners.
var runners = map[string]func(runConfig) (*runResult, error){
	wlSynt1:  func(c runConfig) (*runResult, error) { return runBatch(synt1Spec, c) },
	wlPsoft:  func(c runConfig) (*runResult, error) { return runBatch(psoftSpec, c) },
	wlFleet:  runFleet,
	wlDaemon: runDaemon,
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all four): "+strings.Join(workloadNames, ", "))
		seed         = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		secs         = flag.Int("seconds", referenceSeconds, "run length the op counts are sized for (whole variant cycles)")
		traced       = flag.Bool("traced", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
		traceN       = flag.Int("trace", 0, "driver spelling of -traced: 0 or 1")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		smoke        = flag.Bool("smoke", false, "toy scale, for the unit test")
		repeat       = flag.Int("repeat", 1, "run every workload N times and fail if end-to-end metrics disagree beyond their bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *secs < 1 || *repeat < 1 || *traceN < 0 || *traceN > 1 {
		fatalf("-seconds and -repeat must be at least 1, -trace 0 or 1")
	}
	names := workloadNames
	if *workloadFlag != "" {
		if _, ok := runners[*workloadFlag]; !ok {
			fatalf("unknown workload %q (want one of %s)", *workloadFlag, strings.Join(workloadNames, ", "))
		}
		names = []string{*workloadFlag}
	}
	spec, err := loadSpec()
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	nproc := runtime.NumCPU()
	procs := nproc
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{seed: *seed, sc: fullScale(*secs), traced: *traced || *traceN == 1, outDir: *outDir, par: procs, clients: procs}
	if cfg.clients > nproc {
		cfg.clients = nproc
	}
	if *smoke {
		cfg.sc = smokeScale()
	}
	hdr := header{NProc: nproc, GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: commit(),
		Seed: *seed, Seconds: *secs, Smoke: *smoke, ClosedLoop: true}
	fmt.Printf("# bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d traced=%v smoke=%v closed-loop\n",
		hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Commit, hdr.Seed, hdr.Seconds, cfg.traced, *smoke)

	failed := false
	var lastResult *runResult
	byWorkload := map[string][]*runResult{}
	for rep := 0; rep < *repeat; rep++ {
		for _, name := range names {
			start := time.Now()
			res, err := runners[name](cfg)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			printResult(res, time.Since(start))
			for _, f := range res.Failures {
				fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", name, f)
			}
			if res.Failed > 0 || res.Attempted == 0 {
				failed = true
			}
			if err := checkEmitted(spec, res); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", name, err)
				failed = true
			}
			hdr.Ops = res.Ops
			if err := writeResult(*outDir, rep, hdr, res); err != nil {
				fatalf("%v", err)
			}
			byWorkload[name] = append(byWorkload[name], res)
			lastResult = res
		}
	}
	if *repeat > 1 && !cfg.traced {
		if !agree(spec, byWorkload) {
			failed = true
		}
	}
	if len(names) == 1 {
		line := driverLine{Correct: !failed, Attempted: lastResult.Attempted, Failed: lastResult.Failed,
			Metrics: map[string]driverValue{}}
		for k, v := range lastResult.Metrics {
			line.Metrics[k] = driverValue{v.Value, v.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(b))
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints every metric by name with its unit and sample count.
func printResult(r *runResult, wall time.Duration) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	var ops []string
	for k, v := range r.Ops {
		ops = append(ops, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(ops)
	fmt.Printf("\n== %s · %s · seed %d · ops %s · attempted %d failed %d · %.1fs\n",
		r.Workload, mode, r.Seed, strings.Join(ops, " "), r.Attempted, r.Failed, wall.Seconds())
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Printf("  %-36s %16.6g %-10s %s\n", k, m.Value, m.Unit, n)
	}
}

// checkEmitted verifies the run reported exactly the metric set
// BENCHMARK.json promises for its mode, under the declared units.
func checkEmitted(spec *benchSpec, r *runResult) error {
	want := spec.EndToEnd
	if r.Traced {
		want = spec.PerLayer
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(r.Metrics), len(want))
	}
	return nil
}

func writeResult(outDir string, rep int, hdr header, r *runResult) error {
	name := "result-" + r.Workload
	if r.Traced {
		name += "-traced"
	}
	if rep > 0 {
		name += fmt.Sprintf("-r%d", rep)
	}
	b, err := json.MarshalIndent(resultFile{Header: hdr, Result: r}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name+".json"), append(b, '\n'), 0o644)
}

// exactOnRepeat are the metrics that must repeat exactly for one seed: they
// are counts and costs the program computes, not times.
var exactOnRepeat = map[string]bool{mWhatIfCalls: true, mImprovement: true}

// agree is the -repeat self-agreement check: across the repeats of one
// workload every end-to-end metric must stay within its bound (range over
// median), and the computed ones must agree exactly.
func agree(spec *benchSpec, byWorkload map[string][]*runResult) bool {
	ok := true
	fmt.Printf("\n== self-agreement across repeats\n")
	for _, name := range workloadNames {
		runs := byWorkload[name]
		if len(runs) < 2 {
			continue
		}
		for _, m := range spec.EndToEnd {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			lo, hi, med := quantile(xs, 0), quantile(xs, 1), median(xs)
			spread := 0.0
			if med != 0 {
				spread = (hi - lo) / med
			}
			verdict := "ok"
			switch {
			case exactOnRepeat[m.Name] && hi != lo:
				verdict = "DISAGREE (must repeat exactly)"
				ok = false
			case m.Name != mSetup && spread > m.Bound:
				verdict = fmt.Sprintf("DISAGREE (bound %.2f)", m.Bound)
				ok = false
			}
			fmt.Printf("  %-14s %-22s range/median %.4f  %s\n", name, m.Name, spread, verdict)
		}
	}
	return ok
}
