// Command dta is the command-line front end of the tuning advisor, in the
// spirit of the dta.exe utility that ships with SQL Server 2005 (the paper's
// §2.1: DTA "can be run either from a graphical user interface or using a
// command-line executable").
//
// The tool tunes one of the built-in demonstration databases (tpch, psoft,
// synt1) against a workload file, or evaluates a user-specified
// configuration, and writes the recommendation in the public XML schema.
//
// Usage:
//
//	dta -db tpch -sf 0.01 -workload queries.sql -storage-mb 512 -out rec.xml
//	dta -db tpch -builtin -features IDX_MV -aligned
//	dta -input session.xml -db tpch          # XML-scripted session (§6.1)
//	dta -db synt1 -workload big.trc -stream  # bounded-memory streaming ingest
//	dta -db tpch -explain                    # per-structure provenance report
//	dta -db tpch -builtin -pool tpch.pool.json            # keep the costed pool
//	dta -db tpch -revise tpch.pool.json -storage-mb 256   # replay a constraint change
//
// Workload files use the trace format: one statement per line with optional
// leading weight and duration fields separated by tabs. With -stream the
// trace is folded into the online compressor as it is read, so traces far
// larger than memory tune with the same recommendation as the batch path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/derive"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/testsrv"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

func main() {
	var (
		dbName     = flag.String("db", "tpch", "demonstration database: tpch | psoft | synt1")
		sf         = flag.Float64("sf", 0.01, "scale factor / data scale for the demonstration database")
		wlPath     = flag.String("workload", "", "workload trace file (default: the database's built-in workload)")
		inputXML   = flag.String("input", "", "XML session input (overrides workload/options flags)")
		outPath    = flag.String("out", "", "write the recommendation XML here (default stdout)")
		features   = flag.String("features", "ALL", "feature set: IDX | MV | PARTITIONING | IDX_MV | IDX_PARTITIONING | ALL")
		storageMB  = flag.Int64("storage-mb", 0, "storage budget in MB (0 = 3x raw data)")
		aligned    = flag.Bool("aligned", false, "require aligned partitioning (§4)")
		evaluate   = flag.Bool("evaluate", false, "evaluate the user configuration instead of tuning (§6.3)")
		timeLimit  = flag.Duration("time-limit", 0, "tuning time bound (e.g. 5m)")
		noCompress = flag.Bool("no-compression", false, "disable workload compression (§5.1)")
		stream     = flag.Bool("stream", false, "stream -workload through the online compressor: bounded memory for very large traces, identical recommendation")
		useTestSrv = flag.Bool("test-server", false, "tune through a test server (§5.3)")
		allowDrops = flag.Bool("allow-drops", false, "allow dropping existing non-constraint structures")
		tracePath  = flag.String("trace", "", "write the session's span timeline here as Chrome trace-event JSON (view in chrome://tracing or ui.perfetto.dev)")
		explain    = flag.Bool("explain", false, "after tuning, print per-structure provenance (the greedy decision that admitted each structure, the alternatives it beat, the queries it benefits) reconstructed from the decision journal")
		jnlPath    = flag.String("journal", "", "write the session's decision journal here as NDJSON, one typed event per line")
		quiet      = flag.Bool("q", false, "suppress live progress and the summary")
		par        = flag.Int("parallelism", 0, "concurrent what-if evaluations (0 = GOMAXPROCS); the recommendation does not depend on it")
		deriveMode = flag.String("derive", "on", "cost derivation: on (answer SELECT and DML what-if calls by replaying one plan skeleton per event) | verify (derive and cross-check every derived cost against a real call); the recommendation does not depend on it")
		poolOut    = flag.String("pool", "", "write the session's costed pool here as JSON; feed it back with -revise to replay constraint changes without re-costing")
		revisePath = flag.String("revise", "", "revise: replay the costed pool in this file (written by -pool) under the constraint flags (-storage-mb, -aligned, -pin, -veto, -reweight), re-running only the search layer")
		pinKeys    = flag.String("pin", "", "with -revise: comma-separated structure keys the recommendation must include")
		vetoKeys   = flag.String("veto", "", "with -revise: comma-separated structure keys the recommendation may not include")
		reweight   = flag.String("reweight", "", `with -revise: comma-separated workload-slice reweightings "templateSignature=multiplier"`)
	)
	flag.Parse()

	var err error
	if *revisePath != "" {
		err = runRevise(*dbName, *sf, *revisePath, *outPath, *storageMB, *aligned,
			*pinKeys, *vetoKeys, *reweight, *par, *quiet, *poolOut)
	} else {
		err = run(*dbName, *sf, *wlPath, *inputXML, *outPath, *features, *storageMB,
			*aligned, *evaluate, *allowDrops, *timeLimit, *noCompress, *stream, *useTestSrv, *quiet, *tracePath, *par, *deriveMode,
			*explain, *jnlPath, *poolOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dta:", err)
		os.Exit(1)
	}
}

func run(dbName string, sf float64, wlPath, inputXML, outPath, features string,
	storageMB int64, aligned, evaluate, allowDrops bool, timeLimit time.Duration,
	noCompress, stream, useTestSrv, quiet bool, tracePath string, parallelism int,
	deriveMode string, explain bool, jnlPath, poolOut string) error {

	dmode, err := derive.ParseMode(deriveMode)
	if err != nil {
		return fmt.Errorf("bad -derive: %w", err)
	}
	srv, builtin, err := demo.Build(dbName, sf)
	if err != nil {
		return err
	}

	opts := core.Options{
		Aligned:       aligned,
		TimeLimit:     timeLimit,
		NoCompression: noCompress,
		EvaluateOnly:  evaluate,
		AllowDrops:    allowDrops,
	}
	var w *workload.Workload

	if inputXML != "" {
		doc, err := readXML(inputXML)
		if err != nil {
			return err
		}
		if opts, w, err = xmlio.DecodeInput(doc.Input); err != nil {
			return err
		}
		opts.EvaluateOnly = opts.EvaluateOnly || evaluate
	} else {
		m, err := xmlio.FeatureMaskFromString(features)
		if err != nil {
			return err
		}
		opts.Features = m
	}

	if stream && wlPath == "" {
		return fmt.Errorf("-stream requires -workload (a trace file to stream)")
	}
	if w == nil {
		if wlPath != "" {
			f, err := os.Open(wlPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if stream {
				// Online path: fold the trace into the bounded-memory
				// compressor as it is read and hand the advisor the
				// pre-compressed workload — same recommendation as the batch
				// path for the same trace, but memory stays
				// O(templates × MaxPerTemplate) however long the file is.
				comp := workload.NewCompressor(workload.CompressOptions{})
				if err := workload.StreamTrace(f, func(e *workload.Event, _ int) error {
					return comp.Add(e)
				}); err != nil {
					return err
				}
				st, err := os.Stat(wlPath)
				if err != nil {
					return err
				}
				w = comp.Workload()
				opts.Ingest = &core.IngestStats{Events: comp.Events(), Bytes: st.Size(), Templates: comp.Templates()}
				if !quiet {
					fmt.Fprintf(os.Stderr, "streamed %d events (%d templates) into %d representatives (%.0fx)\n",
						comp.Events(), comp.Templates(), comp.Len(), comp.Ratio())
				}
			} else if w, err = workload.ReadTrace(f); err != nil {
				return err
			}
		} else {
			w = builtin
		}
	}

	if parallelism > 0 {
		opts.Parallelism = parallelism
	}
	opts.Derive = dmode
	if storageMB > 0 {
		opts.StorageBudget = storageMB << 20
	} else if opts.StorageBudget == 0 {
		opts.StorageBudget = 3 * srv.Cat.Bytes()
	}
	if opts.BaseConfig == nil {
		opts.BaseConfig = demo.ConstraintConfig(dbName, srv.Cat)
	}

	var tuner core.Tuner = srv
	var sess *testsrv.Session
	if useTestSrv {
		sess = testsrv.NewSession(srv)
		tuner = sess
	}

	// Live progress on stderr: the same Progress stream the tuning service
	// exposes over HTTP, printed on phase transitions.
	if !quiet {
		var lastPhase core.Phase
		opts.Progress = func(p core.Progress) {
			if p.Phase != lastPhase {
				lastPhase = p.Phase
				fmt.Fprintln(os.Stderr, "  "+p.String())
			}
		}
	}

	// With -trace, run the session under a span timeline and write it out as
	// Chrome trace-event JSON — the same timeline dtaserver serves per
	// session at GET /sessions/{id}/trace.
	ctx := context.Background()
	var trace *obs.Trace
	if tracePath != "" {
		trace = obs.NewTrace("dta " + dbName)
		ctx = obs.WithTrace(ctx, trace)
	}
	// With -explain or -journal, run the session under a decision journal —
	// the same event stream dtaserver serves at GET /sessions/{id}/journal.
	// Journaling is purely observational: the recommendation is byte-identical
	// with it on or off.
	var jnl *journal.Journal
	if explain || jnlPath != "" {
		jnl = journal.New("dta " + dbName)
		ctx = journal.WithContext(ctx, jnl)
	}

	// With -pool, capture the sealed costed pool and write it out after the
	// run; -revise replays it under changed constraints later.
	var pool *core.CostedPool
	if poolOut != "" {
		opts.PoolSink = func(p *core.CostedPool) { pool = p }
	}

	rec, err := core.TuneContext(ctx, tuner, w, opts)
	if err != nil {
		return err
	}

	if poolOut != "" {
		if pool == nil {
			fmt.Fprintln(os.Stderr, "dta: session stopped early; no costed pool to write")
		} else if err := writePool(poolOut, pool, quiet); err != nil {
			return err
		}
	}

	if trace != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", trace.SpanCount(), tracePath)
		}
	}

	if jnlPath != "" {
		f, err := os.Create(jnlPath)
		if err != nil {
			return err
		}
		if err := jnl.WriteNDJSON(f, nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %d journal events to %s\n", jnl.Len(), jnlPath)
		}
	}
	if explain {
		keys := make([]string, 0, len(rec.NewStructures))
		for _, s := range rec.NewStructures {
			keys = append(keys, s.Key())
		}
		exp := journal.Explain(jnl.Events(), keys)
		exp.DroppedEvents = jnl.DroppedByKind()
		if err := exp.WriteText(os.Stderr); err != nil {
			return err
		}
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "tuned %d events (%d templates): improvement %.1f%%, %d structures, %s, %d what-if calls\n",
			rec.EventsTuned, rec.TemplatesTuned, 100*rec.Improvement, len(rec.NewStructures),
			rec.Duration.Round(time.Millisecond), rec.WhatIfCalls)
		if rec.DerivedEvals > 0 {
			fmt.Fprintf(os.Stderr, "  %d evaluations answered by cost derivation (no optimizer call)\n", rec.DerivedEvals)
		}
		if rec.StopReason != "" {
			fmt.Fprintf(os.Stderr, "  stopped early: %s (best-so-far recommendation)\n", rec.StopReason)
		}
		for _, s := range rec.NewStructures {
			fmt.Fprintf(os.Stderr, "  CREATE %s\n", s)
		}
		for _, s := range rec.DroppedStructures {
			fmt.Fprintf(os.Stderr, "  DROP %s\n", s)
		}
		if sess != nil {
			fmt.Fprintf(os.Stderr, "production overhead: %.0f units (what-if calls ran on the test server)\n",
				sess.ProductionOverhead())
		}
	}

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return xmlio.Encode(out, &xmlio.DTAXML{
		Output: &xmlio.Output{Recommendation: xmlio.FromRecommendation(rec)},
	})
}

func readXML(path string) (*xmlio.DTAXML, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xmlio.Decode(f)
}

// writePool serializes a costed pool as JSON, the form -revise (and the
// service's <id>.pool.json files) read back.
func writePool(path string, p *core.CostedPool, quiet bool) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wrote costed pool (%d candidates, %d query gains, fingerprint %s) to %s\n",
			len(p.Candidates), len(p.Gains), p.Fingerprint[:12], path)
	}
	return nil
}

// runRevise is the -revise path: load a costed pool written by -pool (or by
// the service as <id>.pool.json), build a Constraints value from the
// command-line flags, and re-run only the search layer against the same
// demonstration database. The revised recommendation is byte-identical to a
// fresh full run under the same constraints, without re-deriving candidates
// or re-costing atoms.
func runRevise(dbName string, sf float64, revisePath, outPath string,
	storageMB int64, aligned bool, pinKeys, vetoKeys, reweight string,
	parallelism int, quiet bool, poolOut string) error {

	data, err := os.ReadFile(revisePath)
	if err != nil {
		return err
	}
	var pool core.CostedPool
	if err := json.Unmarshal(data, &pool); err != nil {
		return fmt.Errorf("bad pool file %s: %w", revisePath, err)
	}
	if err := pool.Check(); err != nil {
		return fmt.Errorf("pool file %s: %w; re-run dta -pool to write a current one", revisePath, err)
	}
	srv, _, err := demo.Build(dbName, sf)
	if err != nil {
		return err
	}

	cons := core.Constraints{Aligned: aligned}
	if storageMB > 0 {
		cons.StorageBudget = storageMB << 20
	} else {
		cons.StorageBudget = 3 * srv.Cat.Bytes()
	}
	if vetoKeys != "" {
		cons.Vetoed = splitKeys(vetoKeys)
	}
	if pinKeys != "" {
		sts, err := pool.Resolve(splitKeys(pinKeys))
		if err != nil {
			return fmt.Errorf("-pin: %w", err)
		}
		cons.Pinned = catalog.NewConfiguration()
		for _, st := range sts {
			st.ApplyTo(cons.Pinned)
		}
	}
	if reweight != "" {
		if cons.SliceWeights, err = parseReweight(reweight); err != nil {
			return err
		}
	}

	opts := core.Options{}
	if parallelism > 0 {
		opts.Parallelism = parallelism
	}
	if !quiet {
		var lastPhase core.Phase
		opts.Progress = func(p core.Progress) {
			if p.Phase != lastPhase {
				lastPhase = p.Phase
				fmt.Fprintln(os.Stderr, "  "+p.String())
			}
		}
	}
	var revised *core.CostedPool
	if poolOut != "" {
		opts.PoolSink = func(p *core.CostedPool) { revised = p }
	}

	start := time.Now()
	rec, err := core.Revise(context.Background(), srv, &pool, cons, opts)
	if err != nil {
		return err
	}
	if poolOut != "" && revised != nil {
		if err := writePool(poolOut, revised, quiet); err != nil {
			return err
		}
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "revised %d events from pool %s: improvement %.1f%%, %d structures, %s, %d what-if calls (search layer only)\n",
			rec.EventsTuned, pool.Fingerprint[:12], 100*rec.Improvement, len(rec.NewStructures),
			time.Since(start).Round(time.Millisecond), rec.WhatIfCalls)
		for _, s := range rec.NewStructures {
			fmt.Fprintf(os.Stderr, "  CREATE %s\n", s)
		}
		for _, s := range rec.DroppedStructures {
			fmt.Fprintf(os.Stderr, "  DROP %s\n", s)
		}
	}

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return xmlio.Encode(out, &xmlio.DTAXML{
		Output: &xmlio.Output{Recommendation: xmlio.FromRecommendation(rec)},
	})
}

// splitKeys parses a comma-separated structure-key list, trimming blanks.
func splitKeys(s string) []string {
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}

// parseReweight parses -reweight "sig=mult,sig=mult" into slice weights.
func parseReweight(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		sig, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf(`bad -reweight entry %q: want "templateSignature=multiplier"`, part)
		}
		var m float64
		if _, err := fmt.Sscanf(val, "%g", &m); err != nil {
			return nil, fmt.Errorf("bad -reweight multiplier %q: %w", val, err)
		}
		out[sig] = m
	}
	return out, nil
}
