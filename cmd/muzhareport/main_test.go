package main

import (
	"errors"
	"strings"
	"testing"
)

func TestQuickReportRenders(t *testing.T) {
	var sb strings.Builder
	// The quick runs are too short for every claim to hold, so a
	// failed-claims error is expected; any other error is not.
	if err := run([]string{"-quick"}, &sb); err != nil && !errors.Is(err, errClaimsFailed) {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TCP Muzha reproduction report",
		"## Simulation 2",
		"## Simulation 3A",
		"## Section 4.7",
		"| hops | variant |",
		"- [",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Every claim line must be PASS or FAIL, nothing else.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "- [") {
			if !strings.HasPrefix(line, "- [PASS]") && !strings.HasPrefix(line, "- [FAIL]") {
				t.Fatalf("malformed claim line: %q", line)
			}
		}
	}
}

// TestFullReportPasses runs the report at its full parameters: every
// paper claim must hold, or the command exits 1.
func TestFullReportPasses(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if strings.Contains(sb.String(), "- [FAIL]") {
		t.Fatalf("a FAIL line without an error:\n%s", sb.String())
	}
}

func TestReportRejectsBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nope"}, &sb); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
