// Command benchgate is the CI benchmark-regression gate.
//
// It parses `go test -bench` output (from a file argument or stdin),
// compares every benchmark that also appears in the committed baseline
// BENCH_sim.json, and exits non-zero when throughput regressed:
//
//	go test -run '^$' -bench Scenario -benchtime 2s . | go run ./cmd/benchgate -baseline BENCH_sim.json
//
// The gate is deliberately narrow so it stays trustworthy on shared CI
// runners:
//
//   - events/s (the custom metric every gated benchmark reports) must
//     not drop more than -max-regress (default 20%) below baseline.
//   - allocs/op must not exceed -max-alloc-ratio (default 1.5x) the
//     baseline. Allocation counts are deterministic, but fixed setup
//     costs (pool priming) dominate at tiny iteration counts, so the
//     check is skipped when the benchmark ran fewer than 100 iterations.
//   - a baseline entry may carry "max_allocs_per_op", a hand-committed
//     absolute ceiling gated even at one iteration — the memory gate
//     for expensive node-scale benchmarks CI only smokes once, and, at
//     0, the gate that keeps an allocation-free path allocation-free.
//   - ns/op is reported beside events/s but never gated: wall-clock
//     noise on shared runners would make it flaky. It keeps a change to
//     the event model legible: fewer, costlier events per op lower
//     events/s while ns/op improves.
//
// With -update the tool instead rewrites the baseline's "benchmarks"
// section from the parsed output, preserving the "history" section.
// scripts/bench.sh wires the two modes together.
//
// With -scaling <family> the tool prints the parallel scaling curve of
// a width-swept benchmark (sub-benchmarks named <family>/workers=N):
// events/s per width and the speedup relative to workers=1. The curve
// is informational by default — shared CI runners may have any core
// count — but -min-speedup N gates the -speedup-at width for dedicated
// multicore runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// result holds one benchmark's parsed (or baseline) numbers.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	EventsPerS  float64 `json:"events_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Iters       int     `json:"iters,omitempty"`
	// EventsPerOp is recorded by hand in history entries, so a change
	// to the event model (fewer, costlier events) stays legible. The
	// gate ignores it.
	EventsPerOp float64 `json:"events_per_op,omitempty"`
	// MaxAllocsPerOp is a hand-committed absolute allocs/op ceiling,
	// gated even at one iteration (allocation counts are deterministic,
	// so set it with enough headroom to absorb fixed setup costs). Absent
	// (nil) disables it; a committed 0 demands an allocation-free op.
	// -update carries it over from the old baseline.
	MaxAllocsPerOp *float64 `json:"max_allocs_per_op,omitempty"`
}

// baseline mirrors BENCH_sim.json: a current "benchmarks" section the
// gate compares against, plus a free-form "history" of earlier runs
// (e.g. the pre-refactor numbers) that -update must not clobber.
type baseline struct {
	Note       string                       `json:"note,omitempty"`
	Command    string                       `json:"command,omitempty"`
	History    map[string]map[string]result `json:"history,omitempty"`
	Benchmarks map[string]result            `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		baselinePath  = fs.String("baseline", "BENCH_sim.json", "baseline file to compare against (or rewrite with -update)")
		maxRegress    = fs.Float64("max-regress", 0.20, "maximum tolerated fractional events/s regression")
		maxAllocRatio = fs.Float64("max-alloc-ratio", 1.5, "maximum tolerated allocs/op ratio vs baseline")
		update        = fs.Bool("update", false, "rewrite the baseline's benchmarks section from the input instead of comparing")
		scaling       = fs.String("scaling", "", "print the parallel scaling curve of this benchmark family (sub-benchmarks <family>/workers=N) instead of gating")
		minSpeedup    = fs.Float64("min-speedup", 0, "with -scaling: fail unless the -speedup-at width reaches this speedup over workers=1 (only meaningful on dedicated multicore runners)")
		speedupAt     = fs.String("speedup-at", "workers=4", "with -scaling: the width -min-speedup checks")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	in := os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	if *scaling != "" {
		return scalingCurve(*scaling, got, *minSpeedup, *speedupAt, out)
	}
	if *update {
		return writeBaseline(*baselinePath, got, out)
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	failures := compare(base.Benchmarks, got, *maxRegress, *maxAllocRatio, out)
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed: %s", len(failures), strings.Join(failures, "; "))
	}
	fmt.Fprintln(out, "benchgate: all benchmarks within tolerance")
	return nil
}

// parseBench extracts benchmark results from `go test -bench` output.
// Lines look like:
//
//	BenchmarkScenario4HopChain-8  150  7926718 ns/op  9995234 events/s  1550411 B/op  55509 allocs/op
//
// The GOMAXPROCS suffix (-8) is stripped so baselines are portable
// across machines.
func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		res := result{Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "events/s":
				res.EventsPerS = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		// Sub-benchmarks of the same name (e.g. ablation variants)
		// would overwrite each other; the gated set has unique names.
		out[name] = res
	}
	return out, sc.Err()
}

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compare checks every baseline benchmark present in got and returns
// the names that fail the gate. Baseline entries missing from the input
// are reported but do not fail: CI may gate only a subset per run.
func compare(base, got map[string]result, maxRegress, maxAllocRatio float64, out io.Writer) []string {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			fmt.Fprintf(out, "skip  %-28s not in input\n", name)
			continue
		}
		status := "ok"
		if b.EventsPerS > 0 && g.EventsPerS < b.EventsPerS*(1-maxRegress) {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s events/s %.0f < %.0f-%d%%",
				name, g.EventsPerS, b.EventsPerS, int(maxRegress*100)))
		}
		if g.Iters >= 100 && b.AllocsPerOp > 0 && g.AllocsPerOp > b.AllocsPerOp*maxAllocRatio {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s allocs/op %.0f > %.1fx baseline %.0f",
				name, g.AllocsPerOp, maxAllocRatio, b.AllocsPerOp))
		}
		if b.MaxAllocsPerOp != nil && g.AllocsPerOp > *b.MaxAllocsPerOp {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s allocs/op %.0f > ceiling %.0f",
				name, g.AllocsPerOp, *b.MaxAllocsPerOp))
		}
		fmt.Fprintf(out, "%-5s %-28s events/s %12.0f (baseline %12.0f)  ns/op %12.0f (baseline %12.0f)  allocs/op %7.0f (baseline %7.0f)\n",
			status, name, g.EventsPerS, b.EventsPerS, g.NsPerOp, b.NsPerOp, g.AllocsPerOp, b.AllocsPerOp)
	}
	return failures
}

// scalingCurve prints every <family>/<width> entry's events/s and its
// speedup relative to <family>/workers=1, in a fixed width order, and
// optionally gates one width's speedup.
func scalingCurve(family string, got map[string]result, minSpeedup float64, speedupAt string, out io.Writer) error {
	ref, ok := got[family+"/workers=1"]
	if !ok || ref.EventsPerS <= 0 {
		return fmt.Errorf("scaling: input has no %s/workers=1 events/s", family)
	}
	// Fixed display order; any extra widths in the input follow sorted.
	widths := []string{"workers=1", "workers=2", "workers=4", "workers=max"}
	fixed := len(widths)
	for name := range got {
		if w, ok := strings.CutPrefix(name, family+"/"); ok && !slices.Contains(widths, w) {
			widths = append(widths, w)
		}
	}
	sort.Strings(widths[fixed:])

	var gated *result
	for _, w := range widths {
		g, ok := got[family+"/"+w]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "%s/%-12s events/s %12.0f  speedup %.2fx\n",
			family, w, g.EventsPerS, g.EventsPerS/ref.EventsPerS)
		if w == speedupAt {
			g := g
			gated = &g
		}
	}
	if minSpeedup > 0 {
		if gated == nil {
			return fmt.Errorf("scaling: input has no %s/%s to gate", family, speedupAt)
		}
		if sp := gated.EventsPerS / ref.EventsPerS; sp < minSpeedup {
			return fmt.Errorf("scaling: %s/%s speedup %.2fx below required %.2fx", family, speedupAt, sp, minSpeedup)
		}
	}
	return nil
}

// writeBaseline rewrites the benchmarks section of the baseline file
// from got, preserving note/command/history if the file already exists.
func writeBaseline(path string, got map[string]result, out io.Writer) error {
	b := &baseline{}
	if old, err := readBaseline(path); err == nil {
		b = old
	} else if !os.IsNotExist(err) {
		return err
	}
	// Ceilings are hand-committed policy, not measurements: carry them
	// over so a routine -update cannot silently drop the gate.
	for name, old := range b.Benchmarks {
		if g, ok := got[name]; ok && old.MaxAllocsPerOp != nil {
			g.MaxAllocsPerOp = old.MaxAllocsPerOp
			got[name] = g
		}
	}
	b.Benchmarks = got
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchgate: wrote %d benchmark(s) to %s\n", len(got), path)
	return nil
}
