// Command dtabench regenerates every table and figure of the paper's
// evaluation (§7) plus the §3 integrated-vs-staged comparison and the
// ablation studies called out in DESIGN.md, printing each in the paper's
// row/column layout. Pass -quick for a fast reduced-scale run, and
// -json <path> to also write the results as a machine-readable JSON array
// (one record per experiment and per case: name, wall time, what-if calls,
// improvement percentage) — what CI archives as a benchmark artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/derive"
	"repro/internal/experiments"
)

// parseLevels parses the -parallelism flag: comma-separated positive ints.
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%q is not a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels given")
	}
	return out, nil
}

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	only := flag.String("only", "", "run a single experiment: table1, table2, sec72, figure3, table3, sec75, figure45, sec3, ablations, parallel, ingest, derive, revise, daemon")
	jsonPath := flag.String("json", "", "write machine-readable results to this file as JSON")
	parLevels := flag.String("parallelism", "1,2,4", "comma-separated Options.Parallelism levels for the parallel sweep")
	ingestSizes := flag.String("ingest-sizes", "10000,100000,1000000", "comma-separated trace sizes (events) for the streaming-ingestion sweep")
	deriveMode := flag.String("derive", "on", "cost-derivation mode every tuning run uses: on or verify (the derive sweep always runs its real-call oracle, on and verify)")
	flag.Parse()

	levels, err := parseLevels(*parLevels)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtabench: bad -parallelism: %v\n", err)
		os.Exit(2)
	}
	sizes, err := parseLevels(*ingestSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtabench: bad -ingest-sizes: %v\n", err)
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if _, err := derive.ParseMode(*deriveMode); err != nil {
		fmt.Fprintf(os.Stderr, "dtabench: bad -derive: %v\n", err)
		os.Exit(2)
	}
	cfg.Derive = *deriveMode

	var records []experiments.BenchRecord
	run := func(name string, fn func() ([]experiments.BenchRecord, error)) {
		if *only != "" && *only != name {
			return
		}
		start := time.Now()
		recs, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtabench: %s: %v\n", name, err)
			os.Exit(1)
		}
		records = append(records, recs...)
		fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() ([]experiments.BenchRecord, error) {
		fmt.Println(experiments.Table1String())
		return nil, nil
	})
	run("table2", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.Table2String(rows))
		return experiments.SummarizeTable2(rows), nil
	})
	run("sec72", func() ([]experiments.BenchRecord, error) {
		res, err := experiments.Sec72(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(res.String())
		return experiments.SummarizeSec72(res), nil
	})
	run("figure3", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.Figure3(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.Figure3String(rows))
		return experiments.SummarizeFigure3(rows), nil
	})
	run("table3", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.Table3String(rows))
		return experiments.SummarizeTable3(rows), nil
	})
	run("sec75", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.Sec75(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.Sec75String(rows))
		return experiments.SummarizeSec75(rows), nil
	})
	run("figure45", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.Figure45(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.Figure45String(rows))
		return experiments.SummarizeFigure45(rows), nil
	})
	run("sec3", func() ([]experiments.BenchRecord, error) {
		res, err := experiments.Sec3IntegratedVsStaged(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(res.String())
		return experiments.SummarizeSec3(res), nil
	})
	run("parallel", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.ParallelSweep(cfg, levels)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.ParallelString(rows))
		return experiments.SummarizeParallel(rows), nil
	})
	run("ingest", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.IngestSweep(cfg, sizes)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.IngestString(rows))
		return experiments.SummarizeIngest(rows), nil
	})
	run("derive", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.DeriveSweep(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.DeriveString(rows))
		return experiments.SummarizeDerive(rows), nil
	})
	run("revise", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.ReviseSweep(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.ReviseString(rows))
		return experiments.SummarizeRevise(rows), nil
	})
	run("daemon", func() ([]experiments.BenchRecord, error) {
		rows, err := experiments.DaemonSweep(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println(experiments.DaemonString(rows))
		return experiments.SummarizeDaemon(rows), nil
	})
	run("ablations", func() ([]experiments.BenchRecord, error) {
		var recs []experiments.BenchRecord
		for _, fn := range []func(experiments.Config) (*experiments.AblationRow, error){
			experiments.AblationColumnGroupRestriction,
			experiments.AblationMerging,
			experiments.AblationLazyAlignment,
			experiments.AblationGreedySeed,
		} {
			row, err := fn(cfg)
			if err != nil {
				return nil, err
			}
			fmt.Println(experiments.AblationString(row))
			recs = append(recs, experiments.SummarizeAblation(row)...)
		}
		return recs, nil
	})

	if *jsonPath != "" {
		if err := experiments.WriteBenchJSON(*jsonPath, records); err != nil {
			fmt.Fprintf(os.Stderr, "dtabench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dtabench: wrote %d records to %s\n", len(records), *jsonPath)
	}
}
