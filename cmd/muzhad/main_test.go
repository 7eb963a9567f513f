package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// The progress period is fixed at 65,536 events; the flag that set
	// it is gone.
	err := run([]string{"-progress-every", "512", "-data", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -progress-every") {
		t.Fatalf("-progress-every: err = %v, want it refused as undefined", err)
	}
}

func TestRunBadListenAddrCleansUp(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-addr", "300.300.300.300:0", "-data", filepath.Join(dir, "d")})
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
	// The failed start must still have released the journals cleanly: a
	// second start over the same data directory works (or fails on the
	// same bad address, not on the store).
	err2 := run([]string{"-addr", "300.300.300.300:0", "-data", filepath.Join(dir, "d")})
	if err2 == nil {
		t.Fatal("bad listen address accepted on retry")
	}
}
