package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzStateFile feeds arbitrary bytes through what resuming a state
// directory does with each kind of file before any work starts: a session
// file is decoded and prepared (its request rebuilt, its checkpoint
// checked), a pool file decoded and checked — its canonical form and content
// address, against the bytes the canonical writer emits — and a daemon file
// decoded and prepared (its options mapped, its compressor restored). None of
// it may panic. Seeds: the three files of testdata/state-pr45 (the current
// format) and of testdata/state-pr42 (costing format 3).
func FuzzStateFile(f *testing.F) {
	for _, fixture := range []string{"state-pr45", "state-pr42"} {
		files, err := filepath.Glob(filepath.Join("testdata", fixture, "*.json"))
		if err != nil || len(files) != 3 {
			f.Fatalf("%s seeds: %v (%d files)", fixture, err, len(files))
		}
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ss sessionState
		if json.Unmarshal(data, &ss) == nil {
			_, _, _ = ss.prepare()
		}
		var pool core.CostedPool
		if json.Unmarshal(data, &pool) == nil {
			_ = pool.Check()
		}
		var ds daemonState
		if json.Unmarshal(data, &ds) == nil {
			_, _, _ = ds.prepare()
		}
	})
}

// TestStateFileSeedsPass: the fuzz seeds are decodable files, each passing
// the validation of its own kind — so the fuzzer starts from inputs that
// reach past the decoders — but for the costing sections of state-pr42,
// which the validation refuses by their older format.
func TestStateFileSeedsPass(t *testing.T) {
	for _, fixture := range []string{"state-pr45", "state-pr42"} {
		t.Run(fixture, func(t *testing.T) {
			read := func(name string, v any) {
				t.Helper()
				data, err := os.ReadFile(filepath.Join("testdata", fixture, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, v); err != nil {
					t.Fatal(err)
				}
			}
			// refusal checks err against the fixture: nil for the current
			// format, a refusal naming format 3 for the older one.
			refusal := func(what string, err error) {
				t.Helper()
				if old := fixture == "state-pr42"; (err != nil) != old || (old && !strings.Contains(err.Error(), "costing format 3")) {
					t.Fatalf("%s: %v", what, err)
				}
			}
			var ss sessionState
			read("s-0001.json", &ss)
			_, refused, err := ss.prepare()
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			refusal("checkpoint", refused)
			var pool core.CostedPool
			read("d-0001.pool.json", &pool)
			refusal("pool", pool.Check())
			var ds daemonState
			read("d-0001.daemon.json", &ds)
			if _, comp, err := ds.prepare(); err != nil || comp == nil {
				t.Fatalf("daemon: %v (compressor %v)", err, comp != nil)
			}
		})
	}
}
