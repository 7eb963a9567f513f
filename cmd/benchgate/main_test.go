package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: muzha
BenchmarkScenario4HopChain-8   	     150	   7926718 ns/op	   9995234 events/s	 1550411 B/op	   55509 allocs/op
BenchmarkEventChurn-8          	12000000	      94.28 ns/op	  10634547 events/s	       0 B/op	       0 allocs/op
PASS
ok  	muzha	3.1s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	chain, ok := got["BenchmarkScenario4HopChain"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if chain.EventsPerS != 9995234 || chain.AllocsPerOp != 55509 || chain.Iters != 150 {
		t.Fatalf("chain = %+v", chain)
	}
	if got["BenchmarkEventChurn"].NsPerOp != 94.28 {
		t.Fatalf("churn = %+v", got["BenchmarkEventChurn"])
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := map[string]result{"BenchmarkX": {EventsPerS: 1000, AllocsPerOp: 100}}
	var sb strings.Builder

	// 10% down: within the 20% tolerance.
	ok := map[string]result{"BenchmarkX": {EventsPerS: 900, AllocsPerOp: 100, Iters: 500}}
	if f := compare(base, ok, 0.20, 1.5, &sb); len(f) != 0 {
		t.Fatalf("10%% regression failed the gate: %v", f)
	}

	// 30% down: must fail.
	bad := map[string]result{"BenchmarkX": {EventsPerS: 700, AllocsPerOp: 100, Iters: 500}}
	if f := compare(base, bad, 0.20, 1.5, &sb); len(f) != 1 {
		t.Fatalf("30%% regression passed the gate: %v", f)
	}

	// Alloc blow-up fails, but only at real iteration counts.
	allocs := map[string]result{"BenchmarkX": {EventsPerS: 1000, AllocsPerOp: 200, Iters: 500}}
	if f := compare(base, allocs, 0.20, 1.5, &sb); len(f) != 1 {
		t.Fatalf("2x allocs passed the gate: %v", f)
	}
	primed := map[string]result{"BenchmarkX": {EventsPerS: 1000, AllocsPerOp: 200, Iters: 1}}
	if f := compare(base, primed, 0.20, 1.5, &sb); len(f) != 0 {
		t.Fatalf("setup-dominated allocs at 1 iteration failed the gate: %v", f)
	}

	// The report line carries ns/op beside events/s.
	var line strings.Builder
	compare(base, map[string]result{"BenchmarkX": {NsPerOp: 1234, EventsPerS: 1000}}, 0.20, 1.5, &line)
	if !strings.Contains(line.String(), "ns/op         1234") {
		t.Fatalf("report line lacks ns/op: %q", line.String())
	}

	// Baseline entry missing from input is a skip, not a failure.
	if f := compare(base, map[string]result{}, 0.20, 1.5, &sb); len(f) != 0 {
		t.Fatalf("missing benchmark failed the gate: %v", f)
	}
}

func TestCompareAllocCeiling(t *testing.T) {
	base := map[string]result{"BenchmarkBig": {EventsPerS: 1000, AllocsPerOp: 100, MaxAllocsPerOp: 150}}
	var sb strings.Builder

	// Under the ceiling passes even at one iteration (where the
	// ratio-vs-baseline check is skipped as setup-dominated).
	ok := map[string]result{"BenchmarkBig": {EventsPerS: 1000, AllocsPerOp: 140, Iters: 1}}
	if f := compare(base, ok, 0.20, 1.5, &sb); len(f) != 0 {
		t.Fatalf("allocs under the ceiling failed the gate: %v", f)
	}

	// Over the ceiling fails at any iteration count.
	bad := map[string]result{"BenchmarkBig": {EventsPerS: 1000, AllocsPerOp: 151, Iters: 1}}
	if f := compare(base, bad, 0.20, 1.5, &sb); len(f) != 1 {
		t.Fatalf("allocs over the ceiling passed the gate: %v", f)
	}
}

func TestUpdatePreservesAllocCeiling(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_sim.json")
	if err := os.WriteFile(basePath, []byte(`{"benchmarks":
		{"BenchmarkScenario4HopChain": {"events_per_s": 1, "max_allocs_per_op": 70000}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	benchOut := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(benchOut, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-baseline", basePath, "-update", benchOut}, &sb); err != nil {
		t.Fatal(err)
	}
	updated, err := readBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := updated.Benchmarks["BenchmarkScenario4HopChain"].MaxAllocsPerOp; got != 70000 {
		t.Fatalf("-update dropped the allocs ceiling: got %v, want 70000", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	benchOut := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(benchOut, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "BENCH_sim.json")
	if err := os.WriteFile(basePath, []byte(`{
		"history": {"pre_refactor": {"BenchmarkScenario4HopChain": {"ns_per_op": 17434308, "events_per_s": 4478095}}},
		"benchmarks": {"BenchmarkScenario4HopChain": {"ns_per_op": 8000000, "events_per_s": 10000000, "allocs_per_op": 56000}}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"-baseline", basePath, benchOut}, &sb); err != nil {
		t.Fatalf("gate failed on matching numbers: %v\n%s", err, sb.String())
	}

	// A baseline far above the measured numbers must fail.
	if err := os.WriteFile(basePath, []byte(`{"benchmarks":
		{"BenchmarkScenario4HopChain": {"events_per_s": 99000000}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", basePath, benchOut}, &sb); err == nil {
		t.Fatal("gate passed a 10x regression")
	}

	// -update rewrites benchmarks but preserves history.
	if err := os.WriteFile(basePath, []byte(`{
		"history": {"pre_refactor": {"BenchmarkScenario4HopChain": {"ns_per_op": 17434308}}},
		"benchmarks": {}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-baseline", basePath, "-update", benchOut}, &sb); err != nil {
		t.Fatal(err)
	}
	updated, err := readBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(updated.Benchmarks) != 2 {
		t.Fatalf("update wrote %d benchmarks, want 2", len(updated.Benchmarks))
	}
	if updated.History["pre_refactor"]["BenchmarkScenario4HopChain"].NsPerOp != 17434308 {
		t.Fatal("update clobbered history")
	}
	// And the freshly updated baseline must gate-pass its own input.
	if err := run([]string{"-baseline", basePath, benchOut}, &sb); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
}

const sampleScaling = `goos: linux
BenchmarkScenarioGrid/workers=1-8   	      10	  73446045 ns/op	   5000000 events/s
BenchmarkScenarioGrid/workers=2-8   	      10	  70574377 ns/op	   9000000 events/s
BenchmarkScenarioGrid/workers=4-8   	      10	  66750198 ns/op	  19000000 events/s
BenchmarkScenarioGrid/workers=max-8 	      10	  69665269 ns/op	  20000000 events/s
PASS
`

func TestScalingCurve(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleScaling))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := scalingCurve("BenchmarkScenarioGrid", got, 0, "workers=4", &out); err != nil {
		t.Fatal(err)
	}
	txt := out.String()
	for _, want := range []string{"workers=4", "speedup 3.80x", "workers=max", "speedup 1.00x"} {
		if !strings.Contains(txt, want) {
			t.Errorf("curve output missing %q:\n%s", want, txt)
		}
	}
	// Gate passes at 1.8x (speedup is 3.8x)...
	if err := scalingCurve("BenchmarkScenarioGrid", got, 1.8, "workers=4", &out); err != nil {
		t.Errorf("gate at 1.8x should pass: %v", err)
	}
	// ...and fails when the bar is above the measured ratio.
	if err := scalingCurve("BenchmarkScenarioGrid", got, 4.0, "workers=4", &out); err == nil {
		t.Error("gate at 4.0x should fail")
	}
	// Missing reference width is an error, not a zero division.
	if err := scalingCurve("BenchmarkNope", got, 0, "workers=4", &out); err == nil {
		t.Error("unknown family should error")
	}
}
