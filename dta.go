// Package dta is the public API of the Database Tuning Advisor
// reproduction — an automated physical database design tool in the mold of
// the DTA shipped with Microsoft SQL Server 2005 (Agrawal et al., VLDB 2004).
//
// The advisor produces integrated recommendations for indexes, materialized
// views, and single-column horizontal range partitioning for a workload of
// SQL statements, under optional storage, alignment, feature-set, and
// user-specified-configuration constraints. It can tune a production server
// directly, or through a test server holding only metadata and imported
// statistics so that tuning imposes almost no load on production.
//
// Quick start:
//
//	cat := catalog.New()            // describe databases and tables
//	db  := engine.NewDatabase(cat)  // optionally load data
//	srv := dta.NewServer("prod", cat, dta.DefaultHardware())
//	srv.AttachData(db)
//	w, _ := dta.NewWorkload("SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a")
//	rec, _ := dta.Tune(srv, w, dta.Options{StorageBudget: 256 << 20})
//	fmt.Println(rec)
//
// The subsystems (parser, optimizer, what-if interfaces, execution engine,
// statistics) live under internal/ and are documented in DESIGN.md.
package dta

import (
	"context"
	"io"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/testsrv"
	"repro/internal/whatif"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// Re-exported core types: tuning options, results, and feature masks.
type (
	// Options mirrors the tuning inputs of the paper's §2.1.
	Options = core.Options
	// Recommendation is the advisor's output.
	Recommendation = core.Recommendation
	// QueryReport is one per-statement analysis row.
	QueryReport = core.QueryReport
	// FeatureMask selects which physical design features to tune.
	FeatureMask = core.FeatureMask
	// Tuner abstracts the server being tuned (production or test session).
	Tuner = core.Tuner

	// Server is a database server exposing what-if interfaces.
	Server = whatif.Server
	// TestSession tunes through a test server (paper §5.3).
	TestSession = testsrv.Session

	// Configuration is a physical database design.
	Configuration = catalog.Configuration
	// Index, MaterializedView and PartitionScheme are the three physical
	// design feature kinds.
	Index            = catalog.Index
	MaterializedView = catalog.MaterializedView
	PartitionScheme  = catalog.PartitionScheme
	Structure        = catalog.Structure
	// Hardware models the server parameters the cost model considers.
	Hardware = optimizer.Hardware
	// Workload is the set of statements to tune.
	Workload = workload.Workload
	// Event is one workload statement with its weight and duration.
	Event = workload.Event
	// Compressor is the bounded-memory online workload compressor
	// (paper §5.1): feed events as they arrive, retain only
	// O(templates × MaxPerTemplate) representatives, and hand the result to
	// Tune via Options.Ingest. Fed in order it produces exactly what
	// CompressWorkload produces in batch.
	Compressor = workload.Compressor
	// CompressOptions configures workload compression (batch or online).
	CompressOptions = workload.CompressOptions
	// IngestStats records a streaming ingest for Options.Ingest: setting it
	// tells Tune the workload is already-compressed Compressor output.
	IngestStats = core.IngestStats

	// Progress is a live tuning-progress snapshot; set Options.Progress to
	// receive them, or use the tuning service's event stream.
	Progress = core.Progress
	// Phase identifies the pipeline step a progress snapshot belongs to.
	Phase = core.Phase

	// TuningService manages concurrent tuning sessions over registered
	// backends and exposes them over an HTTP JSON API (see cmd/dtaserver).
	TuningService = service.Manager
	// TuningBackend is one tunable database registered with the service.
	TuningBackend = service.Backend
	// TuningSession is one managed tuning run.
	TuningSession = service.Session
)

// Feature mask values.
const (
	FeatureIndexes      = core.FeatureIndexes
	FeatureViews        = core.FeatureViews
	FeaturePartitioning = core.FeaturePartitioning
	FeatureAll          = core.FeatureAll
)

// NewServer creates a server over the catalog.
func NewServer(name string, cat *catalog.Catalog, hw Hardware) *Server {
	return whatif.NewServer(name, cat, hw)
}

// DefaultHardware returns the default hardware model.
func DefaultHardware() Hardware { return optimizer.DefaultHardware() }

// NewWorkload parses SQL texts into a workload with unit weights.
func NewWorkload(sqls ...string) (*Workload, error) { return workload.New(sqls...) }

// ReadWorkload reads a profiler-style trace (one statement per line with
// optional weight and duration fields).
func ReadWorkload(r io.Reader) (*Workload, error) { return workload.ReadTrace(r) }

// CompressWorkload applies workload compression (paper §5.1) explicitly;
// Tune applies it automatically for large workloads.
func CompressWorkload(w *Workload) *Workload {
	return workload.Compress(w, workload.CompressOptions{})
}

// StreamTrace incrementally reads a profiler-style trace, handing each event
// to sink with its 1-based line number; lines may be arbitrarily long and
// errors carry the line they occurred on. Each statement template is parsed
// once: an event repeating a known template arrives with Stmt nil (its
// signature and constants are already known), and Compressor.Add parses the
// events it keeps. A sink that needs the statement parses e.SQL; ReadWorkload
// parses every event. A sink that folds events into a Compressor tunes
// traces far larger than memory:
//
//	comp := dta.NewCompressor(dta.CompressOptions{})
//	err  := dta.StreamTrace(f, func(e *dta.Event, _ int) error { return comp.Add(e) })
//	rec, _ := dta.Tune(srv, comp.Workload(), dta.Options{
//		Ingest: &dta.IngestStats{Events: comp.Events(), Templates: comp.Templates()},
//	})
func StreamTrace(r io.Reader, sink func(e *Event, line int) error) error {
	return workload.StreamTrace(r, sink)
}

// NewCompressor creates an empty online workload compressor.
func NewCompressor(opts CompressOptions) *Compressor { return workload.NewCompressor(opts) }

// Tune produces an integrated physical design recommendation.
func Tune(t Tuner, w *Workload, opts Options) (*Recommendation, error) {
	return core.Tune(t, w, opts)
}

// TuneContext is Tune under a context: cancelling ctx stops the search
// within one what-if optimizer call and returns the best recommendation
// found so far with StopReason set to StopCancelled (anytime behaviour,
// paper §2.1).
func TuneContext(ctx context.Context, t Tuner, w *Workload, opts Options) (*Recommendation, error) {
	return core.TuneContext(ctx, t, w, opts)
}

// Recommendation stop reasons.
const (
	StopTimeLimit = core.StopTimeLimit
	StopCancelled = core.StopCancelled
)

// NewTuningService creates a session manager running at most workers
// concurrent tuning sessions; register backends, then serve its Handler()
// or drive it programmatically.
func NewTuningService(workers int) *TuningService { return service.NewManager(workers) }

// TuneStaged is the staged-selection baseline of paper §3 (one feature at a
// time), for comparison against the integrated search.
func TuneStaged(t Tuner, w *Workload, opts Options, stages []FeatureMask) (*Recommendation, error) {
	return core.TuneStaged(t, w, opts, stages)
}

// TuneITW emulates the SQL Server 2000 Index Tuning Wizard (paper §7.6).
func TuneITW(t Tuner, w *Workload, opts Options) (*Recommendation, error) {
	return core.TuneITW(t, w, opts)
}

// Evaluate performs exploratory what-if analysis of a user-proposed
// configuration without tuning (paper §6.3).
func Evaluate(t Tuner, w *Workload, base, user *Configuration) (*Recommendation, error) {
	return core.Evaluate(t, w, base, user)
}

// NewTestSession imports the production server's metadata into a fresh test
// server and returns a tuning session that imposes almost no load on
// production (paper §5.3).
func NewTestSession(prod *Server) *TestSession { return testsrv.NewSession(prod) }

// NewConfiguration returns an empty physical design.
func NewConfiguration() *Configuration { return catalog.NewConfiguration() }

// WriteRecommendationXML writes the recommendation in the public XML schema
// (paper §6.1).
func WriteRecommendationXML(w io.Writer, rec *Recommendation) error {
	return xmlio.Encode(w, &xmlio.DTAXML{Output: &xmlio.Output{Recommendation: xmlio.FromRecommendation(rec)}})
}
