package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzStateFile feeds arbitrary bytes through what resuming a state
// directory does with each kind of file before any work starts: a session
// file is decoded and prepared (its request rebuilt, its checkpoint
// checked), a pool file decoded and checked — its canonical form and content
// address, against the bytes the canonical writer emits — and a daemon file
// decoded and prepared (its options mapped, its compressor restored). None of
// it may panic. Seeds: the three files of testdata/state-pr25.
func FuzzStateFile(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "state-pr25", "*.json"))
	if err != nil || len(files) != 3 {
		f.Fatalf("state-pr25 seeds: %v (%d files)", err, len(files))
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
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

// TestStateFileSeedsPass: the fuzz seeds are valid files, each passing the
// validation of its own kind — so the fuzzer starts from inputs that reach
// past the decoders.
func TestStateFileSeedsPass(t *testing.T) {
	dir := filepath.Join("testdata", "state-pr25")
	read := func(name string, v any) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatal(err)
		}
	}
	var ss sessionState
	read("s-0001.json", &ss)
	if _, refused, err := ss.prepare(); err != nil || refused != nil {
		t.Fatalf("session: %v, checkpoint refused: %v", err, refused)
	}
	var pool core.CostedPool
	read("d-0001.pool.json", &pool)
	if err := pool.Check(); err != nil {
		t.Fatalf("pool: %v", err)
	}
	var ds daemonState
	read("d-0001.daemon.json", &ds)
	if _, comp, err := ds.prepare(); err != nil || comp == nil {
		t.Fatalf("daemon: %v (compressor %v)", err, comp != nil)
	}
}
