// Command muzhasim regenerates the paper's experiments from the command
// line, emitting CSV rows suitable for plotting.
//
// Usage:
//
//	muzhasim -exp throughput                # Figures 5.8-5.13 sweep
//	muzhasim -exp cwnd -hops 4,8,16         # Figures 5.2-5.7 traces
//	muzhasim -exp fairness                  # Figures 5.16-5.18
//	muzhasim -exp dynamics                  # Figures 5.19-5.22
//	muzhasim -exp modern                    # modernized comparison grid
//	muzhasim -exp single -hops 4 -variants muzha -duration 30s
//	muzhasim -exp single -hops 4 -variants muzha -set stack.packet_error_rate=0.02
//	muzhasim -chaos-cov -runs 40 -corpus corpus.jsonl -repro-dir repros
//	muzhasim -scenario spec.json -out result.json
//	muzhasim -scenario spec.json -remote 127.0.0.1:7370
//	muzhasim -scenario examples/scenarios/islands-1k.json -set duration_ms=5000
//	muzhasim -scenario failing.json -shrink -out repro.json
//	muzhasim -exp throughput -cpuprofile cpu.out -memprofile mem.out
//
// The -cpuprofile and -memprofile flags wrap the whole run or sweep in
// pprof instrumentation (inspect with `go tool pprof`), so the next
// engine hot spot is measured rather than guessed.
//
// All experiments are deterministic in -seed. Multi-run sweeps execute
// on a supervised worker pool of min(GOMAXPROCS, runs) workers (per-run
// results are identical at any width, so GOMAXPROCS=1 in the
// environment gives a serial sweep; inside one run, up to GOMAXPROCS
// interaction domains simulate at once), -resume stores each successful
// run in a result store (muzhad's cache.jsonl format) and skips the
// stored runs on restart, re-running failed ones, and -deadline /
// -max-events bound each run's wall-clock time and event count so one
// stuck scenario cannot hang a sweep.
//
// The -chaos-cov mode runs the coverage-guided chaos loop: randomized
// fault-injection specs are mutated from a persistent corpus (-corpus)
// toward unreached Sometimes assertions, each spec runs twice to check
// determinism, and any failure exits nonzero; with -repro-dir, the first
// failure of each class is shrunk to a minimal reproducer written there.
//
// Every single run is a scenario spec (see EXPERIMENTS.md for the
// format): -scenario loads one from a file, and -exp single makes one
// chain spec per (hop count, variant) cell. Repeatable -set path=value
// flags edit the spec, or every cell, through the strict spec parser.
// Each run's "expect" block is verified (an absent block expects a
// healthy run); with -shrink, a failing scenario is minimized and the
// reproducer written to -out (default repro.json). With -remote, -exp
// single and -scenario compile their specs to Configs here and run
// each on a muzhad daemon instead of in-process, with the same output,
// -out bytes and exit code; shrinking runs locally only. A flag the
// chosen mode does not read is an error. Exit codes triage the worst
// failure class without output parsing:
//
//	1  usage or unclassified error
//	2  invariant violation
//	3  nondeterminism (replay divergence)
//	4  deadline, event budget or livelock guard abort
//	5  engine panic
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"muzha"
	"muzha/internal/canon"
	"muzha/internal/chaoscov"
	"muzha/internal/harness"
	"muzha/internal/jobs"
	"muzha/internal/scenario"
)

// Exit codes per failure class, for CI triage.
const (
	exitGeneric   = 1
	exitInvariant = 2
	exitNonDet    = 3
	exitGuard     = 4
	exitPanic     = 5
)

// exitError carries a triage exit code alongside the error.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// codeFor maps an error to its triage exit code: an exitError's own
// code, else the most severe failure class in the error's chain. A
// sweep driver's summary error thus exits with its worst run's class,
// after the rows of the runs that finished were printed.
func codeFor(err error) int {
	var ee *exitError
	switch {
	case errors.As(err, &ee):
		return ee.code
	case errors.Is(err, muzha.ErrPanic):
		return exitPanic
	case errors.Is(err, muzha.ErrDeadline),
		errors.Is(err, muzha.ErrEventBudget),
		errors.Is(err, muzha.ErrLivelock):
		return exitGuard
	case errors.Is(err, muzha.ErrNonDeterministic):
		return exitNonDet
	case errors.Is(err, muzha.ErrInvariant):
		return exitInvariant
	}
	return exitGeneric
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "muzhasim:", err)
		os.Exit(codeFor(err))
	}
}

// sweepFlags are the flags every -exp sweep reads.
const sweepFlags = "exp seed duration resume deadline max-events "

// modeFlags lists the flags each mode reads, besides -cpuprofile and
// -memprofile, which wrap every mode. run rejects any other flag that
// is set, so nothing on the command line is silently ignored.
var modeFlags = map[string]string{
	"-scenario":       "scenario set shrink out remote deadline max-events",
	"-chaos-cov":      "chaos-cov runs seed duration corpus repro-dir deadline max-events",
	"-exp cwnd":       sweepFlags + "hops variants",
	"-exp throughput": sweepFlags + "hops windows variants seeds",
	"-exp fairness":   sweepFlags + "hops seeds",
	"-exp dynamics":   sweepFlags + "variants",
	"-exp modern":     sweepFlags + "worlds variants seeds",
	"-exp single":     "exp hops variants duration seed set out remote deadline max-events",
}

// scenarioHints say where a flag -scenario does not read lives instead.
var scenarioHints = map[string]string{
	"seed":     "; use -set seed=N",
	"duration": "; use -set duration_ms=N",
}

// setFlags collects the repeatable -set path=value spec edits.
type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, " ") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("muzhasim", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "throughput", "experiment: cwnd | throughput | fairness | dynamics | modern | single")
		hops      = fs.String("hops", "", "comma-separated hop counts (default depends on experiment)")
		windows   = fs.String("windows", "4,8,32", "comma-separated advertised windows (throughput experiment)")
		variants  = fs.String("variants", "newreno,sack,vegas,muzha", "comma-separated TCP variants")
		worlds    = fs.String("worlds", "", "comma-separated modern-grid worlds: chain | rgeo | manhattan (-exp modern; default all)")
		duration  = fs.Duration("duration", 0, "simulated time per run (default depends on experiment)")
		seed      = fs.Int64("seed", 1, "base random seed")
		seeds     = fs.Int("seeds", 3, "number of seeds to average (throughput/fairness)")
		chaosCov  = fs.Bool("chaos-cov", false, "run the coverage-guided chaos loop instead of an experiment")
		corpus    = fs.String("corpus", "", "chaos-corpus JSONL path (-chaos-cov): persists coverage and resumes on restart")
		reproDir  = fs.String("repro-dir", "", "directory for shrunk repro-<class>.json files (-chaos-cov)")
		scenPath  = fs.String("scenario", "", "run one declarative scenario spec file and verify its expect block")
		shrink    = fs.Bool("shrink", false, "with -scenario: minimize a failing spec and write the reproducer to -out")
		runs      = fs.Int("runs", 10, "number of chaos scenarios (-chaos-cov)")
		resume    = fs.String("resume", "", "result store path (muzhad's cache.jsonl format): store successful runs, skip them on restart")
		deadline  = fs.Duration("deadline", 0, "per-run wall-clock deadline (0 = unbounded)")
		maxEvents = fs.Uint64("max-events", 0, "per-run simulator event budget (0 = unbounded)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run/sweep to this file")
		memprof   = fs.String("memprofile", "", "write a pprof allocation profile at exit to this file")
		outPath   = fs.String("out", "", "write machine-readable Result JSON to this file (-exp single, -scenario; same canonical encoding muzhad serves)")
		remote    = fs.String("remote", "", "muzhad address, e.g. 127.0.0.1:7370: run -exp single or -scenario via the daemon instead of in-process")
		sets      setFlags
	)
	fs.Var(&sets, "set", "edit a spec field, repeatable: path=value with a dotted JSON field path and a JSON or plain-string value, e.g. -set stack.expanding_ring=true (-scenario, and every -exp single cell)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode := "-exp " + *exp
	switch {
	case *scenPath != "":
		mode = "-scenario"
	case *chaosCov:
		mode = "-chaos-cov"
	}
	reads, ok := modeFlags[mode]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	given := make(map[string]bool)
	var unread error
	fs.Visit(func(f *flag.Flag) {
		given[f.Name] = true
		if unread == nil && !slices.Contains(strings.Fields(reads+" cpuprofile memprofile"), f.Name) {
			hint := ""
			if mode == "-scenario" {
				hint = scenarioHints[f.Name]
			}
			unread = fmt.Errorf("-%s does not apply to %s%s", f.Name, mode, hint)
		}
	})
	if unread != nil {
		return unread
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		path := *memprof
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "muzhasim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention, not noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "muzhasim: memprofile:", err)
			}
		}()
	}
	sw := muzha.SweepOptions{
		Journal: *resume,
		Guards: muzha.RunGuards{
			WallClock: *deadline,
			MaxEvents: *maxEvents,
			// Any zero-delay event cycle is a bug; a generous window
			// keeps the detector clear of legitimate same-instant bursts.
			LivelockWindow: harness.DefaultLivelockWindow,
		},
	}
	r := runner{guards: sw.Guards}
	if base := *remote; base != "" {
		if *shrink {
			return errors.New("-shrink runs locally; it does not apply with -remote")
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		r.cli = &jobs.Client{BaseURL: base, ClientID: "muzhasim", Attempts: 5}
	}
	if *scenPath != "" {
		return runScenario(out, *scenPath, sets, *shrink, *outPath, r)
	}
	if *chaosCov {
		if *runs < 1 {
			return fmt.Errorf("-runs %d: want at least 1", *runs)
		}
		return runChaosCov(out, *runs, *seed, *duration, *corpus, *reproDir, sw.Guards)
	}

	vs, err := parseVariants(*variants)
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: want at least 1", *seeds)
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}
	defHops := map[string][]int{"cwnd": {4, 8, 16}, "throughput": {4, 8, 12, 16, 24, 32}, "fairness": {4, 6, 8}, "single": {4}}[*exp]
	hs, err := parseInts("-hops", *hops, defHops)
	if err != nil {
		return err
	}

	var family *muzha.Experiment
	switch *exp {
	case "cwnd":
		family, err = muzha.CwndTraces(hs, vs, orDefault(*duration, 10*time.Second), *seed)
	case "throughput":
		var ws []int
		if ws, err = parseInts("-windows", *windows, []int{4, 8, 32}); err == nil {
			family, err = muzha.ThroughputVsHops(muzha.ChainSweepConfig{
				Windows: ws, Hops: hs, Variants: vs, Duration: orDefault(*duration, 30*time.Second), Seeds: seedList,
			})
		}
	case "fairness":
		pairs := [][2]muzha.Variant{{muzha.NewReno, muzha.Vegas}, {muzha.NewReno, muzha.Muzha}, {muzha.Muzha, muzha.Muzha}}
		family, err = muzha.CoexistenceFairness(hs, pairs, orDefault(*duration, 50*time.Second), seedList)
	case "dynamics":
		family, err = muzha.ThroughputDynamics(vs, orDefault(*duration, 30*time.Second), time.Second, *seed)
	case "modern":
		mg := muzha.DefaultModernGrid()
		if given["variants"] {
			// -variants defaults to the paper's classical set; the
			// modern grid has its own default foursome.
			mg.Variants = vs
		}
		if *worlds != "" {
			var ws []string
			for _, w := range strings.Split(*worlds, ",") {
				if w = strings.TrimSpace(w); w != "" {
					ws = append(ws, w)
				}
			}
			mg.Worlds = ws
		}
		mg.Duration = orDefault(*duration, mg.Duration)
		mg.Seeds = seedList
		family, err = muzha.ModernComparisonGrid(mg)
	default: // "single"; modeFlags admits no other experiment
		cells, err := chainCells(hs, vs, orDefault(*duration, 30*time.Second), *seed, sets)
		if err != nil {
			return err
		}
		return runSingle(out, cells, *outPath, r)
	}
	if err != nil {
		return err
	}
	outs, err := muzha.RunExperiments([]*muzha.Experiment{family}, sw)
	if outs == nil {
		return err
	}
	for _, line := range outs[0].CSV {
		fmt.Fprintln(out, line)
	}
	return err // a *SweepError after the rows of the runs that finished
}

func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// parseInts parses a comma-separated list of positive integers; an
// empty list yields def.
func parseInts(flagName, s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%s %q: %q is not a positive integer", flagName, s, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseVariants(s string) ([]muzha.Variant, error) {
	known := make(map[muzha.Variant]bool)
	for _, v := range muzha.Variants() {
		known[v] = true
	}
	var out []muzha.Variant
	for _, part := range strings.Split(s, ",") {
		v := muzha.Variant(strings.ToLower(strings.TrimSpace(part)))
		if !known[v] {
			return nil, fmt.Errorf("unknown variant %q (have %v)", part, muzha.Variants())
		}
		out = append(out, v)
	}
	return out, nil
}

// report prints one run's outcome line: ok with its headline numbers,
// or FAIL with its failure class and cause.
func report(out io.Writer, label string, res *muzha.Result, class string, err error) {
	switch {
	case class == "":
		fmt.Fprintf(out, "ok   %s: jain=%.3f events=%d faults=%+v\n", label, res.JainIndex, res.Events, res.Faults)
	case err != nil:
		fmt.Fprintf(out, "FAIL %s [%s]: %v\n", label, class, err)
	default: // an invariant failure: the run completed
		fmt.Fprintf(out, "FAIL %s [%s]: %d invariant violations\n%s", label, class, res.InvariantViolations, res.InvariantReport())
	}
}

// runner executes one spec's Config: in-process, or on a muzhad daemon
// when cli is set. guards bound the run unless the spec has its own.
type runner struct {
	guards muzha.RunGuards
	cli    *jobs.Client
}

// run executes spec and classifies the outcome: class is "" for a
// healthy run, else the failure class of the run's error or of its
// Always-invariant violations. res is nil when the run produced no
// Result; raw holds the Result bytes muzhad serves for the same Config.
func (r runner) run(spec scenario.Spec) (res *muzha.Result, raw json.RawMessage, class string, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, nil, muzha.ClassError, err
	}
	if spec.Guards == nil {
		cfg.Guards = r.guards
	}
	if r.cli != nil {
		res, raw, err = remoteRun(r.cli, cfg)
	} else if res, err = muzha.Run(cfg); err == nil {
		raw, err = muzha.EncodeResult(res)
	}
	return res, raw, muzha.ClassifyRun(res, err), err
}

// verdict checks one run against its spec's expect block. A miss names
// the scenario and wraps the run's failure, so codeFor gives it the
// failure class's exit code.
func verdict(spec scenario.Spec, res *muzha.Result, class string, runErr error) error {
	err := scenario.CheckExpect(spec, res, class)
	switch {
	case err == nil:
		return nil
	case runErr != nil:
		err = fmt.Errorf("%w: %w", err, runErr)
	case class == muzha.ClassInvariant:
		err = fmt.Errorf("%w: %w", err, muzha.ErrInvariant)
	}
	return fmt.Errorf("%s: %w", spec.Summary(), err)
}

// runScenario executes one declarative spec file, edited by sets,
// reports its outcome and coverage, and verifies the spec's expect
// block; outPath, when set, receives the canonical Result document.
// With shrink set, a failing scenario is instead minimized and the
// self-verifying reproducer written to outPath (default repro.json); a
// healthy run is then an error — there is nothing to shrink.
func runScenario(out io.Writer, path string, sets []string, shrink bool, outPath string, r runner) error {
	spec, err := scenario.Load(path)
	if err == nil {
		spec, err = spec.Set(sets...)
	}
	if err != nil {
		return err
	}
	res, raw, class, runErr := r.run(spec)
	report(out, spec.Summary(), res, class, runErr)
	if res != nil {
		fmt.Fprintf(out, "coverage: %s\n", strings.Join(res.SometimesCoverage(), " "))
	}

	if shrink {
		if class == "" {
			return fmt.Errorf("scenario ran healthy; nothing to shrink")
		}
		if outPath == "" {
			outPath = "repro.json"
		}
		sr := chaoscov.Shrink(spec, class, r.guards, func(f string, a ...any) {
			fmt.Fprintf(out, f+"\n", a...)
		})
		b, err := json.MarshalIndent(sr.Spec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "shrink: class=%s steps=%d runs=%d -> %s (%s)\n",
			sr.Class, sr.Steps, sr.Runs, outPath, sr.Spec.Summary())
		return nil
	}

	if outPath != "" && raw != nil {
		// Exactly the bytes muzhad serves for this spec, so the two cmp clean.
		if err := os.WriteFile(outPath, raw, 0o644); err != nil {
			return err
		}
	}
	if err := verdict(spec, res, class, runErr); err != nil {
		return err
	}
	fmt.Fprintln(out, "expect: ok")
	return nil
}

// runChaosCov drives the coverage-guided chaos loop. Any scenario
// failure exits nonzero with the worst class's code, but only after the
// corpus, coverage history and shrunk reproducers are flushed, so a red
// run leaves everything needed to triage it.
func runChaosCov(out io.Writer, runs int, seed int64, d time.Duration, corpus, reproDir string, guards muzha.RunGuards) error {
	rep, err := chaoscov.Loop(chaoscov.Options{
		Seed:       seed,
		Runs:       runs,
		Duration:   orDefault(d, 3*time.Second),
		CorpusPath: corpus,
		ReproDir:   reproDir,
		Guards:     guards,
		Logf: func(f string, a ...any) {
			fmt.Fprintf(out, f+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coverage-history: %v\n", rep.History)
	fmt.Fprintf(out, "coverage: %s\n", strings.Join(rep.Coverage, " "))
	fmt.Fprintf(out, "chaos-cov: %d runs, %d assertions covered, %d corpus entries, %d failures %v, %d repros\n",
		rep.Runs, len(rep.Coverage), rep.CorpusEntries, rep.Failures, rep.Classes, len(rep.Repros))
	if rep.Failures > 0 {
		counts := make(map[string]int)
		for _, c := range rep.Classes {
			counts[c]++
		}
		return &exitError{
			code: worstExitCode(counts),
			err:  fmt.Errorf("chaos-cov: %d of %d runs failed %v", rep.Failures, rep.Runs, rep.Classes),
		}
	}
	return nil
}

// worstExitCode picks the exit code of the most severe class present,
// in the harness's severity order.
func worstExitCode(counts map[string]int) int {
	byClass := make(map[harness.Class]int, len(counts))
	for c, n := range counts {
		byClass[harness.Class(c)] = n
	}
	return codeFor(harness.Sentinel(harness.WorstOf(byClass)))
}

// singleRecord is one (hops, variant) run in the -out document. The
// embedded result bytes are exactly what muzhad's result endpoint would
// serve for the same config, so local and remote runs diff clean.
type singleRecord struct {
	Hops    int             `json:"hops"`
	Variant muzha.Variant   `json:"variant"`
	Seed    int64           `json:"seed"`
	Result  json.RawMessage `json:"result"`
}

// chainCells builds the -exp single grid: one chain scenario per (hop
// count, variant) cell, each edited by sets. Every cell is validated
// before the first one runs.
func chainCells(hops []int, vs []muzha.Variant, d time.Duration, seed int64, sets []string) ([]scenario.Spec, error) {
	if d%time.Millisecond != 0 {
		return nil, fmt.Errorf("-duration %v: -exp single runs whole milliseconds", d)
	}
	var cells []scenario.Spec
	for _, h := range hops {
		for _, v := range vs {
			spec := scenario.Spec{
				Seed:       seed,
				DurationMs: d.Milliseconds(),
				Topology:   scenario.Topology{Kind: scenario.KindChain, Hops: h},
				Flows:      []scenario.Flow{{Src: 0, Dst: h, Variant: string(v)}},
			}
			spec, err := spec.Set(sets...)
			if err == nil {
				err = spec.Validate()
			}
			if err != nil {
				return nil, err
			}
			cells = append(cells, spec)
		}
	}
	return cells, nil
}

// runSingle runs each cell and prints its first flow as a CSV row. A
// cell that misses its expect block (by default: any failure class)
// does not stop the others; the worst class sets the exit code once
// every row and the -out document are written.
func runSingle(out io.Writer, cells []scenario.Spec, outPath string, r runner) error {
	var (
		records []singleRecord
		fails   []error
	)
	fmt.Fprintln(out, "hops,variant,throughput_bps,retransmissions,timeouts,fast_recoveries,jain_index")
	for _, spec := range cells {
		res, raw, class, runErr := r.run(spec)
		if res != nil {
			f := res.Flows[0]
			fmt.Fprintf(out, "%d,%s,%.0f,%d,%d,%d,%.3f\n",
				spec.Topology.Hops, f.Variant, f.ThroughputBps, f.Retransmissions, f.Timeouts, f.FastRecoveries, res.JainIndex)
			records = append(records, singleRecord{Hops: spec.Topology.Hops, Variant: f.Variant, Seed: spec.Seed, Result: raw})
		}
		fails = append(fails, verdict(spec, res, class, runErr))
	}
	if outPath != "" {
		doc, err := canon.JSON(struct {
			Runs []singleRecord `json:"runs"`
		}{records})
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	return errors.Join(fails...) // nil when every cell met its expect block
}

// remoteRun executes one config on a muzhad daemon and returns its
// Result with the raw canonical bytes the daemon served. The client's
// retry policy absorbs backpressure (429/503) within a bounded budget,
// so a dead daemon fails the run instead of hanging it.
func remoteRun(cli *jobs.Client, cfg muzha.Config) (*muzha.Result, json.RawMessage, error) {
	ctx := context.Background()
	j, err := cli.Submit(ctx, cfg)
	if err == nil && !j.State.Terminal() {
		j, err = cli.Stream(ctx, j.ID, nil)
	}
	if err == nil && j.State != jobs.StateDone {
		err = fmt.Errorf("remote job %s is %s [%s]: %s", j.ID, j.State, j.Class, j.Error)
		if class := harness.Sentinel(harness.Class(j.Class)); class != nil {
			// Keep the class, so ClassifyRun, verdict and codeFor
			// treat the failure as they treat the same local one.
			err = fmt.Errorf("%w: %w", err, class)
		}
	}
	var raw json.RawMessage
	if err == nil {
		raw, err = cli.Result(ctx, j.ID)
	}
	if err != nil {
		return nil, nil, err
	}
	res := new(muzha.Result)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, nil, fmt.Errorf("remote result: %w", err)
	}
	return res, raw, nil
}
