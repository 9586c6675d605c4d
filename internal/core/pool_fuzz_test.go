package core

import (
	"encoding/json"
	"slices"
	"testing"

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
	if !slices.ContainsFunc(pool.Derive.Facts, func(f derive.FactRecord) bool { return f.Alts != nil && f.Alts.Maint != nil }) {
		tb.Fatal("toy PSOFT pool carries no maintenance skeleton")
	}
	data, err := json.Marshal(pool)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// malformedPools derives hostile variants of a pool — structure IDs out of
// range or negative, bad event indexes, duplicate entries, unsorted ID lists,
// skeleton facts naming no structure — each re-stamped with a valid
// fingerprint, so only Check's shape validation (or the decoders' own
// guards) stands between them and a warm start.
func malformedPools(tb testing.TB, seed []byte) map[string][]byte {
	tb.Helper()
	variants := map[string]func(p *CostedPool){
		"id-out-of-range": func(p *CostedPool) { p.Cache.Entries[0].IDs = []int32{int32(len(p.Cache.Structs))} },
		"id-negative":     func(p *CostedPool) { p.Cache.Entries[0].IDs = []int32{-1} },
		"used-out-of-range": func(p *CostedPool) {
			p.Cache.Entries[0].Used = []int32{1 << 20}
		},
		"event-out-of-range": func(p *CostedPool) { p.Cache.Entries[len(p.Cache.Entries)-1].Event = 1 << 30 },
		"event-negative":     func(p *CostedPool) { p.Cache.Entries[0].Event = -1 },
		"duplicate-entry":    func(p *CostedPool) { p.Cache.Entries = append(p.Cache.Entries, p.Cache.Entries[0]) },
		"unsorted-ids": func(p *CostedPool) {
			for i := range p.Cache.Entries {
				if ids := p.Cache.Entries[i].IDs; len(ids) > 1 {
					slices.Reverse(ids)
					return
				}
			}
			tb.Fatal("seed pool has no multi-structure cost-cache key")
		},
		"duplicate-ids":     func(p *CostedPool) { p.Cache.Entries[0].IDs = []int32{0, 0} },
		"unsorted-table":    func(p *CostedPool) { slices.Reverse(p.Cache.Structs) },
		"fact-out-of-range": func(p *CostedPool) { p.Derive.Facts[0].Node = []int32{int32(len(p.Derive.Structs)) + 3} },
		"fact-negative":     func(p *CostedPool) { p.Derive.Facts[0].Node = []int32{-7} },
		"old-format":        func(p *CostedPool) { p.Cache.Format = 0 },
	}
	out := map[string][]byte{}
	for name, mutate := range variants {
		var p CostedPool
		if err := json.Unmarshal(seed, &p); err != nil {
			tb.Fatal(err)
		}
		mutate(&p)
		p.Fingerprint = p.ComputeFingerprint()
		data, err := json.Marshal(&p)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// warmStartPool is what a revision does with a decoded pool before its
// search: rebuild the workload, restore the skeleton facts and load the cost
// cache. It must survive any decoded input.
func warmStartPool(srv Tuner, p *CostedPool) {
	mode, err := derive.ParseMode(string(p.Knobs.Derive))
	if err != nil {
		return
	}
	w, err := workload.FromStatements(p.Statements)
	if err != nil {
		return
	}
	p.warmState(srv, w, p.Base, mode)
}

// FuzzCostedPool feeds arbitrary bytes through what loading a pool file
// does — json.Unmarshal, Check, and a revision's warm start — none of which
// may panic. The corpus seeds are a toy pool, its malformed variants, and a
// toy PSOFT pool carrying DML maintenance skeletons.
func FuzzCostedPool(f *testing.F) {
	srv := testServer(f)
	seed := toyPoolJSON(f, srv)
	f.Add(seed)
	for _, data := range malformedPools(f, seed) {
		f.Add(data)
	}
	f.Add(toyDMLPoolJSON(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p CostedPool
		if json.Unmarshal(data, &p) != nil {
			return
		}
		_ = p.Check()
		warmStartPool(srv, &p)
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
