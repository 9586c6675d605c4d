package main

import (
	"strings"
	"testing"
)

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
