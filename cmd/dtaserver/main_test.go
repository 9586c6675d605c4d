package main

import (
	"io"
	"log/slog"
	"strings"
	"testing"
)

// TestDeriveFlagRejectsRemovedOff: the server's -derive default accepts on
// and verify only; the removed "off" fails at startup, naming the removal.
func TestDeriveFlagRejectsRemovedOff(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for mode, want := range map[string]string{"off": "was removed", "sometimes": "unknown mode"} {
		err := run(logger, "127.0.0.1:0", "tpch", 0.002, 1, 0, false, false, "", "", mode, 0, 0)
		if err == nil || !strings.Contains(err.Error(), "bad -derive") || !strings.Contains(err.Error(), want) {
			t.Errorf("-derive %s: %v, want a bad -derive error containing %q", mode, err, want)
		}
	}
}
