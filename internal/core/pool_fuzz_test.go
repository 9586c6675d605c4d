package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen/psoft"
	"repro/internal/derive"
	"repro/internal/workload"
)

// toyPoolJSON tunes a one-statement workload on srv and returns the sealed
// pool as the JSON a pool file holds.
func toyPoolJSON(tb testing.TB, srv Tuner) []byte {
	tb.Helper()
	w := workload.MustNew("SELECT id FROM t WHERE x = 42")
	var pool *CostedPool
	if _, err := Tune(srv, w, Options{Parallelism: 1, PoolSink: func(p *CostedPool) { pool = p }}); err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(pool)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// toyDMLPoolJSON tunes a short toy PSOFT trace with every feature and returns
// the sealed pool's JSON: its skeleton section carries maintenance skeletons
// of INSERT, UPDATE and DELETE statements beside single-scope and join ones.
func toyDMLPoolJSON(tb testing.TB) []byte {
	tb.Helper()
	srv, _, base := toyBackend(tb, "psoft")
	var pool *CostedPool
	opts := Options{Features: FeatureAll, BaseConfig: base, Parallelism: 1, SkipReports: true, PoolSink: func(p *CostedPool) { pool = p }}
	if _, err := Tune(srv, psoft.Workload(srv.Catalog(), 6, 1), opts); err != nil {
		tb.Fatal(err)
	}
	if !slices.ContainsFunc(pool.Skeletons.Facts, func(f derive.FactRecord) bool { return f.Alts != nil && f.Alts.Maint != nil }) {
		tb.Fatal("toy PSOFT pool carries no maintenance skeleton")
	}
	data, err := json.Marshal(pool)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// sectionMutations are hostile edits of a costing section — structure
// positions out of range, negative or unsorted, bad event indexes, duplicate
// or unordered facts, a base part that is not its top's, a fact without a
// skeleton, an unsorted or empty structure table entry, an old format —
// shared by the malformed pools and checkpoints.
func sectionMutations(tb testing.TB) map[string]func(s *CostingSection) {
	// fact returns the index of the first fact whose top satisfies ok.
	fact := func(s *CostingSection, what string, ok func(r derive.FactRecord) bool) int {
		i := slices.IndexFunc(s.Skeletons.Facts, ok)
		if i < 0 {
			tb.Fatalf("seed section has no fact with %s", what)
		}
		return i
	}
	return map[string]func(s *CostingSection){
		"fact-out-of-range": func(s *CostingSection) { s.Skeletons.Facts[0].Node = []int32{int32(len(s.Skeletons.Structs)) + 3} },
		"fact-negative":     func(s *CostingSection) { s.Skeletons.Facts[0].Node = []int32{-7} },
		"event-out-of-range": func(s *CostingSection) {
			s.Skeletons.Facts[len(s.Skeletons.Facts)-1].Event = 1 << 30
		},
		"event-negative":  func(s *CostingSection) { s.Skeletons.Facts[0].Event = -1 },
		"duplicate-fact":  func(s *CostingSection) { s.Skeletons.Facts = append(s.Skeletons.Facts, s.Skeletons.Facts[0]) },
		"unordered-facts": func(s *CostingSection) { slices.Reverse(s.Skeletons.Facts) },
		"unsorted-node": func(s *CostingSection) {
			slices.Reverse(s.Skeletons.Facts[fact(s, "a multi-structure top", func(r derive.FactRecord) bool { return len(r.Node) > 1 })].Node)
		},
		"duplicate-node-ids": func(s *CostingSection) { s.Skeletons.Facts[0].Node = []int32{0, 0} },
		"base-not-top-base": func(s *CostingSection) {
			r := &s.Skeletons.Facts[fact(s, "an additive structure", func(r derive.FactRecord) bool { return len(r.Base) < len(r.Node) })]
			r.Base = slices.Clone(r.Node)
		},
		"no-skeleton":    func(s *CostingSection) { s.Skeletons.Facts[0].Alts = nil },
		"unsorted-table": func(s *CostingSection) { slices.Reverse(s.Skeletons.Structs) },
		"no-structure":   func(s *CostingSection) { s.Skeletons.Structs[0].Structure = catalog.Structure{} },
		"old-format":     func(s *CostingSection) { s.Format = CostingFormat - 1 },
	}
}

// malformedPools derives hostile variants of a pool by sectionMutations,
// each re-stamped with a valid fingerprint, so only Check's shape validation
// (or the decoders' own guards) stands between them and a warm start.
func malformedPools(tb testing.TB, seed []byte) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for name, mutate := range sectionMutations(tb) {
		var p CostedPool
		if err := json.Unmarshal(seed, &p); err != nil {
			tb.Fatal(err)
		}
		mutate(&p.CostingSection)
		p.Fingerprint = p.ComputeFingerprint()
		data, err := json.Marshal(&p)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// malformedCheckpoints derives hostile variants of a checkpoint by
// sectionMutations.
func malformedCheckpoints(tb testing.TB, seed []byte) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for name, mutate := range sectionMutations(tb) {
		var ck Checkpoint
		if err := json.Unmarshal(seed, &ck); err != nil {
			tb.Fatal(err)
		}
		mutate(&ck.CostingSection)
		data, err := json.Marshal(&ck)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// toyCheckpointJSON returns the JSON of the last checkpoint taken during
// candidate selection of a toy tune on srv, skeleton section included.
func toyCheckpointJSON(tb testing.TB, srv Tuner) []byte {
	tb.Helper()
	var ck *Checkpoint
	sink := func(c *Checkpoint) {
		if c.Phase == PhaseCandidates {
			ck = c
		}
	}
	if _, err := Tune(srv, lookupWorkload(10), Options{NoCompression: true, Parallelism: 1, CheckpointEvery: 1, CheckpointSink: sink}); err != nil {
		tb.Fatal(err)
	}
	if ck == nil || ck.Skeletons == nil || len(ck.Skeletons.Facts) == 0 {
		tb.Fatal("no candidate-selection checkpoint with skeleton facts")
	}
	data, err := json.Marshal(ck)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// parentCheckpointJSON returns the checkpoint of one of the service's
// state-directory fixtures: state-pr45, written by a binary with the current
// costing format, or state-pr42, written by one with costing format 3,
// which also persisted the cost cache.
func parentCheckpointJSON(tb testing.TB, fixture string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "service", "testdata", fixture, "s-0001.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var st struct {
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		tb.Fatal(err)
	}
	return st.Checkpoint
}

// warmStartCheckpoint is what a resumed session does with a decoded
// checkpoint: restore its skeleton facts after the statistics pass's epoch
// bump. It must survive any decoded input.
func warmStartCheckpoint(srv Tuner, ck *Checkpoint) {
	ev := newEvaluator(srv, lookupWorkload(10), "", testTracker())
	ev.bumpEpoch()
	ev.drv.Restore(ck.Skeletons)
}

// warmStartPool is what a revision does with a decoded pool before its
// search: rebuild the workload and restore the skeleton facts. It must
// survive any decoded input.
func warmStartPool(srv Tuner, p *CostedPool) {
	mode, err := derive.ParseMode(string(p.Knobs.Derive))
	if err != nil {
		return
	}
	w, err := workload.FromStatements(p.Statements)
	if err != nil {
		return
	}
	p.warmState(srv, w, p.Base, mode, testTracker())
}

// FuzzCostedPool feeds arbitrary bytes through what loading a pool file or a
// session checkpoint does — json.Unmarshal, Check, and the warm start (a
// revision's; a resume's at its restore point) — none of which may
// panic; every decoded pool's canonical writer must also emit exactly
// json.Marshal's bytes for it, or fail as json.Marshal does. Both decoders share the costing section, so they share one corpus:
// a toy pool, its malformed variants, a toy PSOFT pool carrying DML
// maintenance skeletons, a toy checkpoint with skeletons, its malformed
// variants, the checkpoints of the service's state-pr45 fixture and of its
// state-pr42 one (costing format 3, which persisted the cost cache beside
// the facts), and the state-pr45 daemon's pool file.
func FuzzCostedPool(f *testing.F) {
	srv := testServer(f)
	seed := toyPoolJSON(f, srv)
	f.Add(seed)
	for _, data := range malformedPools(f, seed) {
		f.Add(data)
	}
	f.Add(toyDMLPoolJSON(f))
	ck := toyCheckpointJSON(f, srv)
	f.Add(ck)
	for _, data := range malformedCheckpoints(f, ck) {
		f.Add(data)
	}
	f.Add(parentCheckpointJSON(f, "state-pr45"))
	f.Add(parentCheckpointJSON(f, "state-pr42"))
	daemonPool, err := os.ReadFile(filepath.Join("..", "service", "testdata", "state-pr45", "d-0001.pool.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(daemonPool)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p CostedPool
		if json.Unmarshal(data, &p) == nil {
			checkCanonical(t, &p)
			_ = p.Check()
			warmStartPool(srv, &p)
		}
		var ck Checkpoint
		if json.Unmarshal(data, &ck) == nil {
			_ = ck.Check()
			warmStartCheckpoint(srv, &ck)
		}
	})
}

// TestCheckRejectsMalformedPools: every malformed variant fails Check even
// though its fingerprint is valid, and still warm-starts without panicking.
func TestCheckRejectsMalformedPools(t *testing.T) {
	srv := testServer(t)
	for name, data := range malformedPools(t, toyPoolJSON(t, srv)) {
		var p CostedPool
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Check(); err == nil {
			t.Errorf("%s: passed Check", name)
		}
		warmStartPool(srv, &p)
	}
}

// TestCheckRejectsMalformedCheckpoints: every malformed checkpoint variant
// fails Check — but an out-of-range event, which only a workload can bound,
// and which the warm start ignores — and still warm-starts without
// panicking; the checkpoints it derives from pass, one of the older format
// is refused by it, and so is one captured before the statistics pass.
func TestCheckRejectsMalformedCheckpoints(t *testing.T) {
	srv := testServer(t)
	seed := toyCheckpointJSON(t, srv)
	for _, data := range [][]byte{seed, parentCheckpointJSON(t, "state-pr45"), parentCheckpointJSON(t, "state-pr42")} {
		var ck Checkpoint
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatal(err)
		}
		err := ck.Check()
		if old := ck.Format != CostingFormat; (err != nil) != old || (old && !strings.Contains(err.Error(), "costing format 3")) {
			t.Fatalf("seed checkpoint (format %d): Check = %v", ck.Format, err)
		}
	}
	for _, phase := range []Phase{PhaseBaseline, PhaseColGroups} {
		var ck Checkpoint
		if err := json.Unmarshal(seed, &ck); err != nil {
			t.Fatal(err)
		}
		ck.Phase = phase
		if err := ck.Check(); err == nil || !strings.Contains(err.Error(), "before the statistics pass") {
			t.Fatalf("checkpoint captured in %s: Check = %v", phase, err)
		}
	}
	for name, data := range malformedCheckpoints(t, seed) {
		var ck Checkpoint
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ck.Check(); (err == nil) != (name == "event-out-of-range") {
			t.Errorf("%s: Check = %v", name, err)
		}
		warmStartCheckpoint(srv, &ck)
	}
}

// TestPoolByteFlipsFailCheck flips every byte of a sealed toy pool's JSON,
// three ways each (low bit, ASCII case bit, high bit): each variant either
// fails to decode or fails Check — including flips encoding/json forgives,
// such as a case-folded field name or invalid UTF-8, which decode to the
// very pool the fingerprint was computed over.
func TestPoolByteFlipsFailCheck(t *testing.T) {
	seed := toyPoolJSON(t, testServer(t))
	var p CostedPool
	if err := json.Unmarshal(seed, &p); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatalf("seed pool: %v", err)
	}
	flipped := make([]byte, len(seed))
	for i := range seed {
		for _, mask := range []byte{0x01, 0x20, 0x80} {
			copy(flipped, seed)
			flipped[i] ^= mask
			var q CostedPool
			if json.Unmarshal(flipped, &q) != nil {
				continue
			}
			if err := q.Check(); err == nil {
				t.Fatalf("byte %d ^ %#x (%q → %q) passed Check", i, mask, seed[i], flipped[i])
			}
		}
	}
	t.Logf("%d bytes × 3 flips", len(seed))
}
