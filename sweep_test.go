package muzha

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"muzha/internal/harness"
	"muzha/internal/sim"
)

// guardConfig is a small healthy scenario for guard tests.
func guardConfig(t *testing.T) Config {
	t.Helper()
	cfg := chainConfig(t, 3, Muzha)
	cfg.Duration = 2 * time.Second
	return cfg
}

// TestRunGuardEventBudget: a real run past its event budget must abort
// cleanly with ErrEventBudget, not return a partial Result.
func TestRunGuardEventBudget(t *testing.T) {
	cfg := guardConfig(t)
	cfg.Guards = RunGuards{MaxEvents: 5000}
	res, err := Run(cfg)
	if res != nil || !errors.Is(err, ErrEventBudget) {
		t.Fatalf("res=%v err=%v, want ErrEventBudget", res, err)
	}
	if Classify(err) != ClassEventBudget {
		t.Fatalf("Classify = %q", Classify(err))
	}
}

// TestRunGuardDeadline: an unmeetable wall-clock deadline aborts with
// ErrDeadline at the first guard check.
func TestRunGuardDeadline(t *testing.T) {
	cfg := guardConfig(t)
	cfg.Guards = RunGuards{WallClock: time.Nanosecond}
	res, err := Run(cfg)
	if res != nil || !errors.Is(err, ErrDeadline) {
		t.Fatalf("res=%v err=%v, want ErrDeadline", res, err)
	}
}

// TestRunGuardsDoNotPerturbResults: a run that completes under generous
// guards must be bit-for-bit identical to the unguarded run.
func TestRunGuardsDoNotPerturbResults(t *testing.T) {
	plain, err := Run(guardConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := guardConfig(t)
	cfg.Guards = RunGuards{WallClock: 5 * time.Minute, MaxEvents: 1 << 40, LivelockWindow: 5_000_000}
	guarded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, guarded) {
		t.Fatalf("guards changed a completing run:\nplain:   %+v\nguarded: %+v", plain, guarded)
	}
}

// TestLivelockDetectorTripsOnZeroDelayCycle is the satellite scenario:
// an event that reschedules itself at zero delay spins the engine
// without advancing virtual time, and the watchdog must catch it.
func TestLivelockDetectorTripsOnZeroDelayCycle(t *testing.T) {
	s := sim.New(1)
	wc := harness.WatchdogConfig{LivelockWindow: 10_000}
	s.SetGuard(wc.Interval(), harness.NewWatchdog(
		func() int64 { return int64(s.Now()) }, s.EventsExecuted, wc))
	var spin func()
	spin = func() { s.Schedule(0, spin) }
	s.Schedule(sim.Millisecond, spin)

	s.Run(sim.Second)
	if !errors.Is(s.GuardErr(), ErrLivelock) {
		t.Fatalf("GuardErr = %v, want ErrLivelock", s.GuardErr())
	}
	if s.Now() != sim.Millisecond {
		t.Fatalf("aborted at t=%v, want the livelock instant 1ms", s.Now())
	}
}

// TestSweepClassifiesLivelockBudgetAndPanic is the acceptance scenario:
// one sweep containing a livelocking run, an event-budget blowup and a
// panicking run completes, finishes the healthy job, and classifies all
// three failures correctly in its outcomes and SweepError.
func TestSweepClassifiesLivelockBudgetAndPanic(t *testing.T) {
	guardedSim := func(seed int64, wc harness.WatchdogConfig, load func(*sim.Simulator)) func() (any, error) {
		return func() (any, error) {
			s := sim.New(seed)
			s.SetGuard(wc.Interval(), harness.NewWatchdog(
				func() int64 { return int64(s.Now()) }, s.EventsExecuted, wc))
			load(s)
			s.Run(sim.Second)
			if err := s.GuardErr(); err != nil {
				return nil, err
			}
			return s.EventsExecuted(), nil
		}
	}
	healthy := guardConfig(t)
	jobs := []func() (any, error){
		guardedSim(1, harness.WatchdogConfig{LivelockWindow: 5_000}, func(s *sim.Simulator) {
			var spin func()
			spin = func() { s.Schedule(0, spin) }
			s.Schedule(0, spin)
		}),
		guardedSim(2, harness.WatchdogConfig{MaxEvents: 10_000}, func(s *sim.Simulator) {
			var tick func()
			tick = func() { s.Schedule(sim.Nanosecond, tick) }
			s.Schedule(0, tick)
		}),
		func() (any, error) { panic("corrupted event heap") },
		func() (any, error) { return Run(healthy) },
	}

	names := []string{"livelock", "budget", "panic", "healthy"}
	outs := supervise(jobs, 4, nil)
	for i, want := range []string{ClassLivelock, ClassEventBudget, ClassPanic, ""} {
		if outs[i].Class != want {
			t.Errorf("job %q classified %q, want %q (err=%v)", names[i], outs[i].Class, want, outs[i].Err)
		}
	}
	if outs[3].Result == nil || outs[3].Err != nil {
		t.Fatalf("healthy job lost its Result: %+v", outs[3])
	}
	err := sweepError(outs)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("sweepError = %T (%v)", err, err)
	}
	if se.Total != 4 || se.Failed != 3 ||
		se.Counts[ClassLivelock] != 1 || se.Counts[ClassEventBudget] != 1 || se.Counts[ClassPanic] != 1 {
		t.Fatalf("sweep misclassified: %+v", se)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("worst class %v, want ErrPanic", err)
	}
}

// chaosConfigs returns the ChaosScenario configs of seeds 1..n, the
// randomized fault worlds the chaos sweep tests run on the pool.
func chaosConfigs(t *testing.T, n int) []Config {
	t.Helper()
	var cfgs []Config
	for seed := int64(1); seed <= int64(n); seed++ {
		cfg, _, err := ChaosScenario(seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// runHashed runs the configs on runPool under their Config.Hash keys.
func runHashed(t *testing.T, cfgs []Config, opt SweepOptions) ([]runOutcome, error) {
	t.Helper()
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		key, err := cfg.Hash()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	return runPool(cfgs, keys, opt)
}

// TestChaosSweepParallelMatchesSerial is the acceptance determinism
// gate: per-run outcomes from a parallel sweep of ChaosScenario seeds
// must be reflect.DeepEqual to the serial sweep's.
func TestChaosSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	serial, err := runHashed(t, chaosConfigs(t, 6), SweepOptions{width: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runHashed(t, chaosConfigs(t, 6), SweepOptions{width: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("seed %d failed serially: %v", i+1, serial[i].Err)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("seed %d outcomes differ between serial and parallel sweeps", i+1)
		}
	}
}

// TestChaosSweepJournalResume: completed seeds are skipped on restart
// and the merged outcome matches an uninterrupted sweep run for run.
func TestChaosSweepJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	full, err := runHashed(t, chaosConfigs(t, 5), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := SweepOptions{width: 2, Journal: filepath.Join(t.TempDir(), "chaos.jsonl")}
	partial, err := runHashed(t, chaosConfigs(t, 3), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range partial {
		if o.Resumed {
			t.Fatalf("first journaled sweep reported seed %d resumed", i+1)
		}
	}
	merged, err := runHashed(t, chaosConfigs(t, 5), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range merged {
		if wantResumed := i < 3; merged[i].Resumed != wantResumed {
			t.Errorf("seed %d resumed=%v, want %v", i+1, merged[i].Resumed, wantResumed)
		}
		merged[i].Resumed = false
		if !reflect.DeepEqual(merged[i], full[i]) {
			t.Errorf("seed %d outcome diverged across the journal round-trip", i+1)
		}
	}
}

// TestSweepStoreRerunsFailures: a sweep's store keeps successes only.
// A config that fails its wall-clock guard under a store runs again on
// the next sweep and, given a larger guard, succeeds with a fresh run's
// Result; a config that succeeded is resumed, not run.
func TestSweepStoreRerunsFailures(t *testing.T) {
	done := guardConfig(t)
	done.Guards = RunGuards{WallClock: 5 * time.Minute} // its own guard: the sweep's does not apply
	stale := guardConfig(t)
	stale.Seed = 2
	cfgs := []Config{done, stale}
	store := filepath.Join(t.TempDir(), "sweep.jsonl")

	first, err := runHashed(t, cfgs, SweepOptions{Journal: store, Guards: RunGuards{WallClock: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Err != nil || !errors.Is(first[1].Err, ErrDeadline) {
		t.Fatalf("first sweep: done err=%v, stale err=%v; want nil and a deadline", first[0].Err, first[1].Err)
	}

	second, err := runHashed(t, cfgs, SweepOptions{Journal: store, Guards: RunGuards{WallClock: 5 * time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].Resumed || !reflect.DeepEqual(second[0].Result, first[0].Result) {
		t.Fatalf("the stored success was not resumed as it ran: %+v", second[0])
	}
	if second[1].Resumed || second[1].Err != nil {
		t.Fatalf("the stored failure was not run again: resumed=%v err=%v", second[1].Resumed, second[1].Err)
	}
	fresh, err := Run(stale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second[1].Result, fresh) {
		t.Fatal("the re-run differs from a fresh run")
	}
}

// TestStoringLeavesResultAlone: storing a Result never changes it. A
// finite Result is stored as its EncodeResult bytes; one with a
// non-finite float cannot be encoded and is not stored.
func TestStoringLeavesResultAlone(t *testing.T) {
	store, err := harness.OpenCache(filepath.Join(t.TempDir(), "sweep.jsonl"), harness.CacheLimit{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	r := degenerateResult()
	before := fmt.Sprintf("%+v", *r)
	storeResult(store, "degenerate", r)
	if after := fmt.Sprintf("%+v", *r); after != before {
		t.Fatalf("storing changed the Result:\nbefore %s\nafter  %s", before, after)
	}
	if store.Has("degenerate") {
		t.Fatal("a Result with non-finite floats was stored")
	}

	r = &Result{Flows: []FlowResult{{ID: 1, ThroughputBps: 1000}}, Duration: time.Second}
	storeResult(store, "finite", r)
	got, ok := store.Get("finite")
	want, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || string(got) != string(want) {
		t.Fatalf("stored %s (found %v), want EncodeResult's %s", got, ok, want)
	}
}

// failingWriter rejects every write, simulating a full disk under a
// packet trace.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunSurfacesTraceErrorAlongsideRunError is the satellite check: a
// run that aborts must still report its truncated packet trace, so the
// trace is never mistaken for a complete one.
func TestRunSurfacesTraceErrorAlongsideRunError(t *testing.T) {
	cfg := guardConfig(t)
	// An event budget of half what the unguarded run needs aborts it
	// midway under any event model.
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PacketTrace = failingWriter{}
	cfg.Guards = RunGuards{MaxEvents: full.Events / 2}
	res, err := Run(cfg)
	if res != nil {
		t.Fatal("partial Result escaped a failed traced run")
	}
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("run error lost: %v", err)
	}
	if !strings.Contains(err.Error(), "packet trace") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("trace error not surfaced alongside run error: %v", err)
	}
}

// TestThroughputVsHopsParallelMatchesSerial: the experiment driver must
// aggregate identical rows at any sweep width.
func TestThroughputVsHopsParallelMatchesSerial(t *testing.T) {
	mk := func(width int) []ChainRow {
		exp, err := ThroughputVsHops(ChainSweepConfig{
			Windows:  []int{4},
			Hops:     []int{2, 3},
			Variants: []Variant{NewReno, Muzha},
			Duration: 2 * time.Second,
			Seeds:    []int64{1, 2},
		})
		return rowsOf[ChainRow](t, exp, err, SweepOptions{width: width})
	}
	serial, parallel := mk(1), mk(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("driver rows differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSweepErrorClassification: SweepError exposes the worst class via
// errors.Is and renders per-class counts.
func TestSweepErrorClassification(t *testing.T) {
	outs := []runOutcome{
		{Result: &Result{}},
		{Err: fmt.Errorf("x: %w", harness.ErrLivelock), Class: ClassLivelock},
		{Err: fmt.Errorf("x: %w", harness.ErrEventBudget), Class: ClassEventBudget},
		{Result: &Result{InvariantViolations: 2}},
	}
	err := sweepError(outs)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("sweepError = %T", err)
	}
	if se.Total != 4 || se.Failed != 3 {
		t.Fatalf("summary %+v", se)
	}
	if se.Counts[ClassLivelock] != 1 || se.Counts[ClassEventBudget] != 1 || se.Counts[ClassInvariant] != 1 {
		t.Fatalf("counts %v", se.Counts)
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("worst class not exposed: %v", err)
	}
	if !strings.Contains(err.Error(), "[livelock:1 event-budget:1 invariant:1]") {
		t.Fatalf("classes not rendered worst first: %v", err)
	}
	if sweepError([]runOutcome{{Result: &Result{}}}) != nil {
		t.Fatal("healthy sweep produced an error")
	}
	// Every class renders, canceled included.
	canceled := sweepError([]runOutcome{{Err: fmt.Errorf("x: %w", ErrCanceled), Class: ClassCanceled}})
	if !strings.Contains(canceled.Error(), "[canceled:1]") {
		t.Fatalf("canceled runs not rendered: %v", canceled)
	}
}
