package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muzha"
)

// TestQuickReportRenders renders the report of a short two-cell sweep,
// with one check that comes out as expected and one that does not:
// the headings, the family's table and both claim lines must appear,
// every claim line must be PASS or FAIL, and the miss must be counted.
func TestQuickReportRenders(t *testing.T) {
	exp, err := muzha.ThroughputVsHops(muzha.ChainSweepConfig{
		Windows:  []int{4},
		Hops:     []int{2},
		Variants: []muzha.Variant{muzha.NewReno, muzha.Muzha},
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := muzha.RunExperiments([]*muzha.Experiment{exp}, muzha.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	claim := muzha.Claim{ID: "1@2", Text: "a claim", Expect: muzha.Holds}
	outs[0].Claims = []muzha.Verdict{
		{Claim: claim, Got: muzha.Holds, Detail: "as expected"},
		{Claim: claim, Got: muzha.Diverges, Detail: "not as expected"},
	}
	var sb strings.Builder
	blocks, failed, total := report(&sb, outs)
	if failed != 1 || total != 2 {
		t.Fatalf("failed %d of %d, want 1 of 2", failed, total)
	}
	if len(blocks) != 2 || blocks[0][0] != "claims" || blocks[1][0] != "fig5.8-5.10" {
		t.Fatalf("blocks: %q", blocks)
	}
	out := sb.String()
	for _, want := range []string{
		"# TCP Muzha reproduction report",
		"## Claims",
		"## fig5.8-5.10",
		"| window | hops | newreno | muzha |",
		"- [PASS] 1@2 holds (expected holds)",
		"- [FAIL] 1@2 diverges (expected holds)",
		"## Rows",
		"fig5.8-5.10 window=4 hops=2 variant=muzha",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Every claim line must be PASS or FAIL, nothing else.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "- [") && !strings.HasPrefix(line, "- [PASS]") && !strings.HasPrefix(line, "- [FAIL]") {
			t.Fatalf("malformed claim line: %q", line)
		}
	}
}

// TestFullReportPasses runs the whole registry: every claim check must
// come out as expected, and EXPERIMENTS.md must match the rendering.
// Under the race detector the full registry takes minutes; the race
// run covers the report's concurrency with TestQuickReportRenders, and
// this test still runs in every plain `go test` and `go run
// ./cmd/muzhareport`.
func TestFullReportPasses(t *testing.T) {
	if raceEnabled {
		t.Skip("the full registry runs without the race detector")
	}
	var sb strings.Builder
	if err := run(nil, &sb, "../../EXPERIMENTS.md"); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"# TCP Muzha reproduction report",
		"## Claims",
		"## fig5.8-5.10",
		"## fig5.16-5.18",
		"## sec4.7",
		"| window | hops | newreno | sack | vegas | muzha |",
		"- [PASS] 1@16 diverges (expected diverges)",
		"## Rows",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Every claim line must be PASS, nothing else.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "- [") && !strings.HasPrefix(line, "- [PASS]") {
			t.Fatalf("claim line not PASS: %q", line)
		}
	}
}

// TestSyncDocFindsDrift checks and rewrites a document's generated
// blocks.
func TestSyncDocFindsDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.md")
	doc := "intro\n<!-- begin a -->\nold\n<!-- end a -->\nmiddle\n<!-- begin b -->\nB\n<!-- end b -->\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	blocks := [][2]string{{"a", "new\n"}, {"b", "B\n"}}
	if err := syncDoc(path, blocks, false); err == nil || !strings.HasSuffix(err.Error(), "in a; rerun with -update") {
		t.Fatalf("drifted block a not reported: %v", err)
	}
	if err := syncDoc(path, blocks, true); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != strings.Replace(doc, "old", "new", 1) {
		t.Fatalf("rewrite:\n%s", got)
	}
	if err := syncDoc(path, append(blocks, [2]string{"c", "C\n"}), true); err == nil {
		t.Fatal("missing block c not reported")
	}
}

func TestReportRejectsBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nope"}, &sb, "../../EXPERIMENTS.md"); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
