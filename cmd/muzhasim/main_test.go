package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"muzha"
	"muzha/internal/scenario"
)

func TestRunSingleCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "single", "-hops", "2", "-variants", "newreno", "-duration", "2s"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row:\n%s", len(lines), sb.String())
	}
	if lines[0] != "hops,variant,throughput_bps,retransmissions,timeouts,fast_recoveries,jain_index" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2,newreno,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestRunCwndCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "cwnd", "-hops", "2", "-variants", "muzha", "-duration", "1s"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Header + 11 samples (0.0s .. 1.0s at 100 ms steps).
	if len(lines) != 12 {
		t.Fatalf("lines = %d, want 12", len(lines))
	}
	if !strings.HasPrefix(lines[1], "2,muzha,0.0,") {
		t.Fatalf("first sample = %q", lines[1])
	}
}

func TestRunDynamicsCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "dynamics", "-variants", "newreno", "-duration", "3s"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "variant,flow,time_s,throughput_bps\n") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "newreno,1,") {
		t.Fatal("flow 1 rows missing")
	}
}

func TestRunThroughputCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-exp", "throughput", "-hops", "2", "-windows", "4",
		"-variants", "newreno,muzha", "-duration", "2s", "-seeds", "1",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
}

func TestRunFairnessCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "fairness", "-hops", "4", "-duration", "2s", "-seeds", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 pairings
		t.Fatalf("lines = %d, want 4", len(lines))
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nope"}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-variants", "compound"}, &sb); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if err := run([]string{"-exp", "throughput", "-worlds", "chain"}, &sb); err == nil {
		t.Fatal("-worlds accepted outside -exp modern")
	}
	if err := run([]string{"-bogus-flag"}, &sb); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// Every flag a mode does not read is rejected, pointing at its
	// replacement where there is one.
	spec := filepath.Join("..", "..", "internal", "chaoscov", "testdata", "event-budget.json")
	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", spec, "-duration", "5s"}, "-set duration_ms="},
		{[]string{"-scenario", spec, "-seed", "9"}, "-set seed="},
		{[]string{"-scenario", spec, "-remote", "localhost:1"}, "/v1/scenarios"},
		{[]string{"-scenario", spec, "-set", "stack.expanding_rng=true"}, `unknown field "expanding_rng"`},
		{[]string{"-exp", "single", "-hops", "4,x,8"}, `"x" is not a positive integer`},
		{[]string{"-exp", "single", "-hops", "2", "-duration", "1500us"}, "whole milliseconds"},
		{[]string{"-exp", "fairness", "-variants", "muzha"}, "-variants does not apply to -exp fairness"},
		{[]string{"-exp", "single", "-parallel", "2"}, "-parallel does not apply to -exp single"},
		{[]string{"-chaos", "-shrink"}, "-shrink does not apply to -chaos"},
		{[]string{"-chaos-cov", "-chaos"}, "-chaos does not apply to -chaos-cov"},
	} {
		err := run(tt.args, &sb)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tt.args, err, tt.want)
		}
	}
	// -run-workers only sets a width, so it combines with -shrink.
	repro := filepath.Join(t.TempDir(), "repro.json")
	if err := run([]string{"-scenario", spec, "-shrink", "-run-workers", "2", "-out", repro}, &sb); err != nil {
		t.Errorf("-shrink -run-workers 2: %v", err)
	}
}

// TestChainCellsMatchHandBuiltConfig pins that -exp single's chain
// specs generate exactly the Config the command used to build by hand,
// so the -out golden and muzhad's cache keys cannot move.
func TestChainCellsMatchHandBuiltConfig(t *testing.T) {
	vs := []muzha.Variant{muzha.NewReno, muzha.Muzha, muzha.CUBIC}
	for _, per := range []float64{0, 0.02} {
		var sets []string
		if per > 0 {
			sets = []string{"stack.packet_error_rate=0.02"}
		}
		cells, err := chainCells([]int{2, 4, 16}, vs, 30*time.Second, 7, sets)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for _, h := range []int{2, 4, 16} {
			top, err := muzha.ChainTopology(h)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				want := muzha.DefaultConfig()
				want.Topology = top
				want.Duration = 30 * time.Second
				want.Seed = 7
				want.PacketErrorRate = per
				want.Flows = []muzha.Flow{{Src: 0, Dst: h, Variant: v}}
				got, err := cells[i].Config()
				if err != nil {
					t.Fatal(err)
				}
				i++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hops=%d %s per=%g: spec config\n%+v\nwant\n%+v", h, v, per, got, want)
				}
				gh, _ := got.Hash()
				wh, _ := want.Hash()
				if gh != wh {
					t.Fatalf("hops=%d %s per=%g: hash %s, want %s", h, v, per, gh, wh)
				}
			}
		}
	}
}

// TestIslandsExampleIsPerfbenchWorld0 pins examples/scenarios/islands-1k.json
// to the benchmark's first islands-1k world, built the way perfbench
// builds it.
func TestIslandsExampleIsPerfbenchWorld0(t *testing.T) {
	spec, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "islands-1k.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	top, err := muzha.GridIslandsFlowsTopology(16, 8, 8, 1500, 8, 5225608189600411232)
	if err != nil {
		t.Fatal(err)
	}
	want := muzha.DefaultConfig()
	want.Topology = top
	want.Duration = 3 * time.Second
	want.Window = 8
	want.ExpandingRing = true
	want.Seed = 5452762862878174055
	for _, e := range top.FlowEndpoints() {
		want.Flows = append(want.Flows, muzha.Flow{Src: e[0], Dst: e[1], Variant: muzha.Muzha})
	}
	gh, _ := got.Hash()
	wh, _ := want.Hash()
	if gh != wh {
		t.Fatalf("islands-1k example hashes to %s, perfbench world 0 to %s", gh, wh)
	}
}

// TestSingleFailingCellsExitCode checks that a failing -exp single cell
// does not stop the others and that its class sets the exit code.
func TestSingleFailingCellsExitCode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "single", "-hops", "2,3", "-variants", "newreno",
		"-duration", "2s", "-max-events", "500"}, &sb)
	if codeFor(err) != exitGuard {
		t.Fatalf("err = %v, want exit code %d", err, exitGuard)
	}
	for _, cell := range []string{"chain-2hop", "chain-3hop"} {
		if !strings.Contains(err.Error(), cell) {
			t.Errorf("error does not report cell %s: %v", cell, err)
		}
	}
}

// TestScenarioInvariantViolationExitCode runs a committed repro found by
// -chaos-cov, whose TCP sender acknowledges past what it sent, with its
// expect block cleared: the violated Always invariant must exit with
// the triage code, not 0.
func TestScenarioInvariantViolationExitCode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scenario", filepath.Join("..", "..", "internal", "chaoscov", "testdata", "snduna-past-sndnxt.json"),
		"-set", "expect=null"}, &sb)
	if err == nil || codeFor(err) != exitInvariant {
		t.Fatalf("err = %v, want exit code %d\n%s", err, exitInvariant, sb.String())
	}
	if !regexp.MustCompile(`(?m)^tcp-snduna-monotone .* VIOLATED`).MatchString(sb.String()) {
		t.Fatalf("violated invariant missing from report:\n%s", sb.String())
	}
}

func TestParseInts(t *testing.T) {
	tests := []struct {
		give    string
		def     []int
		want    []int
		wantErr bool
	}{
		{give: "", def: []int{1}, want: []int{1}},
		{give: "4,8", want: []int{4, 8}},
		{give: " 4 , 8 ", want: []int{4, 8}},
		{give: "x,-3", def: []int{7}, wantErr: true},
		{give: "4,x,8", wantErr: true},
		{give: "4,0", wantErr: true},
		{give: "4,,8", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseInts("-hops", tt.give, tt.def)
		if (err != nil) != tt.wantErr || !slices.Equal(got, tt.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v, error %t", tt.give, got, err, tt.want, tt.wantErr)
		}
	}
}

func TestParseVariants(t *testing.T) {
	vs, err := parseVariants("NewReno, muzha")
	if err != nil || len(vs) != 2 {
		t.Fatalf("parseVariants: %v %v", vs, err)
	}
	if _, err := parseVariants("newreno,bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestChaosGuardFailureExitCode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-chaos", "-runs", "2", "-duration", "1s", "-max-events", "500"}, &sb)
	if err == nil {
		t.Fatal("event-budget blowout passed")
	}
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitGuard {
		t.Fatalf("err = %v (%T), want exitError code %d", err, err, exitGuard)
	}
	if !strings.Contains(sb.String(), "[event-budget]") {
		t.Fatalf("failure class missing from report:\n%s", sb.String())
	}
}

func TestChaosDeadlineExitCode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-chaos", "-runs", "1", "-duration", "1s", "-deadline", "1ns"}, &sb)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitGuard {
		t.Fatalf("err = %v, want exitError code %d", err, exitGuard)
	}
}

func TestChaosResumeSkipsCompletedRuns(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	var first strings.Builder
	if err := run([]string{"-chaos", "-runs", "2", "-seed", "1", "-duration", "1s", "-resume", journal}, &first); err != nil {
		t.Fatalf("first sweep: %v\n%s", err, first.String())
	}
	var second strings.Builder
	if err := run([]string{"-chaos", "-runs", "4", "-seed", "1", "-duration", "1s", "-resume", journal}, &second); err != nil {
		t.Fatalf("resumed sweep: %v\n%s", err, second.String())
	}
	if !strings.Contains(second.String(), "resumed=2") {
		t.Fatalf("completed seeds not resumed:\n%s", second.String())
	}
}

func TestCodeForTaxonomy(t *testing.T) {
	tests := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("x: %w", muzha.ErrPanic), exitPanic},
		{fmt.Errorf("x: %w", muzha.ErrDeadline), exitGuard},
		{fmt.Errorf("x: %w", muzha.ErrEventBudget), exitGuard},
		{fmt.Errorf("x: %w", muzha.ErrLivelock), exitGuard},
		{fmt.Errorf("x: %w", muzha.ErrNonDeterministic), exitNonDet},
		{fmt.Errorf("x: %w", muzha.ErrInvariant), exitInvariant},
		{errors.New("plain"), exitGeneric},
	}
	for _, tt := range tests {
		if got := codeFor(tt.err); got != tt.want {
			t.Errorf("codeFor(%v) = %d, want %d", tt.err, got, tt.want)
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var sb strings.Builder
	err := run([]string{"-exp", "single", "-hops", "2", "-variants", "newreno",
		"-duration", "1s", "-cpuprofile", cpu, "-memprofile", mem}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
