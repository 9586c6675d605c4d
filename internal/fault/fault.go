// Package fault is the tuning system's robustness substrate: deterministic,
// seedable fault injection (so failure paths are testable in CI), retry with
// exponential backoff around expensive backend calls, and a failure-rate
// circuit breaker that lets a tuning session degrade gracefully instead of
// crashing.
//
// The paper's advisor is designed to run for hours against production
// servers under a tuning time bound (§2, §6): it must tolerate flaky
// what-if optimizer calls, slow test-server imports, and process restarts
// while still returning the best recommendation found so far (the anytime
// property of §2.1). This package supplies the mechanisms; internal/core
// threads them through the pipeline (retrying what-if calls, tripping a
// session into degraded mode) and internal/service persists checkpoints so
// a killed server resumes in-flight sessions.
//
// Everything here is nil-tolerant: a nil *Injector injects nothing and a
// nil *Breaker never trips, so production paths pay nothing when fault
// handling is unconfigured.
package fault

// Well-known injection sites. An Injector accepts arbitrary site names;
// these are the ones the tuning pipeline consults.
const (
	// SiteWhatIf is one what-if optimizer call (whatif.Server.WhatIf and
	// the evaluator's leader path).
	SiteWhatIf = "whatif"
	// SiteStats is one statistics build (whatif.Server sampling its data).
	SiteStats = "stats"
	// SiteImport is one statistics import onto a test server (§5.3 Step 2).
	SiteImport = "import"
)
