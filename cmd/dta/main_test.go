package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xmlio"
)

// TestReviseRefusesOldPoolFormat: pool files written by older binaries —
// the unversioned string-keyed form (its cache under "cache", one rendered
// key per entry) and costing format 3 (a versioned cost cache beside the
// facts) — are refused by -revise with a message naming the format, before
// any database is built, never revised against a section it would misread.
func TestReviseRefusesOldPoolFormat(t *testing.T) {
	for format, old := range map[int]string{
		0: `{"statements":[{"sql":"SELECT id FROM t WHERE x = 1","weight":1}],` +
			`"cache":[{"key":"0\u0000ix:t(x)","cost":12.5,"used":["ix:t(x)"]}],` +
			`"derive":{"mode":"on","facts":[{"event":0,"node":"ix:t(x)","cost":12.5}]},` +
			`"knobs":{"features":1},"fingerprint":"3f0c"}`,
		3: `{"statements":[{"sql":"SELECT id FROM t WHERE x = 1","weight":1}],` +
			`"costCache":{"format":3,"structs":["ix:t(x)"],"entries":[{"e":0,"k":[0],"c":12.5}]},` +
			`"knobs":{"features":1},"fingerprint":"3f0c"}`,
	} {
		path := filepath.Join(t.TempDir(), "old.pool.json")
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		err := runRevise("tpch", 0.002, path, "", 0, false, "", "", "", 0, true, "")
		if want := fmt.Sprintf("costing format %d,", format); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "dta -pool") {
			t.Fatalf("-revise on a format-%d pool file: %v, want a refusal naming the format", format, err)
		}
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

// TestRevisePin: -revise -pin resolves each key against the pool file's
// candidates, so a candidate the original run did not recommend lands in
// the revised recommendation; a key the pool does not hold fails the
// revision with an error naming it.
func TestRevisePin(t *testing.T) {
	dir := t.TempDir()
	poolPath, recPath := filepath.Join(dir, "tpch.pool.json"), filepath.Join(dir, "rec.xml")
	if err := run("tpch", 0.002, "", "", recPath, "IDX", 0, false, false, false, 0,
		false, false, false, true, "", 0, "on", false, "", poolPath); err != nil {
		t.Fatal(err)
	}
	recommended := recommendedKeys(t, recPath)
	data, err := os.ReadFile(poolPath)
	if err != nil {
		t.Fatal(err)
	}
	var pool core.CostedPool
	if err := json.Unmarshal(data, &pool); err != nil {
		t.Fatal(err)
	}
	pin := ""
	for _, st := range pool.Candidates {
		if !recommended[st.Key()] {
			pin = st.Key()
		}
	}
	if pin == "" {
		t.Fatal("every pool candidate is already recommended; nothing to pin")
	}

	revPath := filepath.Join(dir, "rev.xml")
	if err := runRevise("tpch", 0.002, poolPath, revPath, 0, false, pin, "", "", 0, true, ""); err != nil {
		t.Fatal(err)
	}
	if !recommendedKeys(t, revPath)[pin] {
		t.Fatalf("-pin %s: key missing from the revised recommendation", pin)
	}

	const unknown = "ix:nosuch(col)"
	err = runRevise("tpch", 0.002, poolPath, revPath, 0, false, pin+","+unknown, "", "", 0, true, "")
	if err == nil || !strings.Contains(err.Error(), "-pin") || !strings.Contains(err.Error(), unknown) {
		t.Fatalf("-pin with an unknown key: %v, want an error naming %q", err, unknown)
	}
}

// recommendedKeys reads a recommendation XML file and returns its
// configuration's structure keys.
func recommendedKeys(t *testing.T, path string) map[string]bool {
	t.Helper()
	doc, err := readXML(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, st := range xmlio.ToConfiguration(doc.Output.Recommendation.Configuration).Structures() {
		keys[st.Key()] = true
	}
	return keys
}
