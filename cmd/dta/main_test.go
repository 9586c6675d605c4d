package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReviseRefusesOldPoolFormat: a pool file written before the ID-keyed
// cost-cache format (its cache under "cache", one rendered key per entry)
// is refused by -revise with a message naming the format, before any
// database is built — never revised against a cache it would misread.
func TestReviseRefusesOldPoolFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.pool.json")
	old := `{"statements":[{"sql":"SELECT id FROM t WHERE x = 1","weight":1}],` +
		`"cache":[{"key":"0\u0000ix:t(x)","cost":12.5,"used":["ix:t(x)"]}],` +
		`"derive":{"mode":"on","facts":[{"event":0,"node":"ix:t(x)","cost":12.5}]},` +
		`"knobs":{"features":1},"fingerprint":"3f0c"}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runRevise("tpch", 0.002, path, "", 0, false, "", "", "", 0, true, "")
	if err == nil || !strings.Contains(err.Error(), "cost-cache format 0") || !strings.Contains(err.Error(), "dta -pool") {
		t.Fatalf("-revise on an old pool file: %v, want a refusal naming the format", err)
	}
}

// TestDeriveFlagRejectsRemovedOff: -derive accepts on and verify only; the
// removed "off" fails before any database is built, naming the removal.
func TestDeriveFlagRejectsRemovedOff(t *testing.T) {
	for mode, want := range map[string]string{"off": "was removed", "sometimes": "unknown mode"} {
		err := run("tpch", 0.002, "", "", "", "IDX", 0, false, false, false, 0,
			false, false, false, true, "", 0, mode, false, "", "")
		if err == nil || !strings.Contains(err.Error(), "bad -derive") || !strings.Contains(err.Error(), want) {
			t.Errorf("-derive %s: %v, want a bad -derive error containing %q", mode, err, want)
		}
	}
}
