package muzha

import (
	"reflect"
	"testing"
	"time"
)

// faultyConfig is a kitchen-sink scenario: mobility, background load,
// and every fault kind on one chain.
func faultyConfig(t *testing.T) Config {
	t.Helper()
	top, err := ChainTopologySpaced(4, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 8 * time.Second
	cfg.Seed = 42
	cfg.Window = 8
	cfg.Flows = []Flow{
		{Src: 0, Dst: 4, Variant: Muzha},
		{Src: 4, Dst: 0, Variant: NewReno, Start: time.Second},
	}
	cfg.Background = []BackgroundFlow{
		{Src: 1, Dst: 3, RateBps: 64000, Start: 2 * time.Second},
	}
	cfg.Mobility = &Mobility{
		Width: 1200, Height: 600,
		MinSpeed: 1, MaxSpeed: 5,
		Pause:       time.Second,
		MobileNodes: []int{2},
	}
	cfg.Faults = []FaultEvent{
		{Kind: FaultNodeCrash, At: 2 * time.Second, Duration: 2 * time.Second, Node: 2},
		{Kind: FaultLinkBlackout, At: 5 * time.Second, Duration: time.Second, LinkA: 0, LinkB: 1},
		{Kind: FaultBurstLoss, At: 6 * time.Second, Duration: time.Second, BadLossRate: 0.7},
		{Kind: FaultPartition, At: 7*time.Second + 200*time.Millisecond, Duration: 300 * time.Millisecond,
			Groups: [][]int{{0, 1, 2}}},
	}
	return cfg
}

// TestRunDeterminism replays the kitchen-sink scenario and requires the
// full Result — every counter, trace and invariant outcome — to match
// bit-for-bit. This is the regression gate for seed-reproducibility:
// any unsorted map walk or wall-clock leak into the engine shows up
// here as a diff.
func TestRunDeterminism(t *testing.T) {
	first, err := Run(faultyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(faultyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("identical configs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.InvariantViolations != 0 {
		t.Fatalf("invariant violations under faults:\n%s", first.InvariantReport())
	}
	if first.Faults.Crashes != 1 || first.Faults.Reboots != 1 {
		t.Fatalf("crash/reboot not injected: %+v", first.Faults)
	}
	if first.Faults.Blackouts != 1 || first.Faults.Partitions != 1 || first.Faults.BurstPhases != 1 {
		t.Fatalf("fault kinds missing from stats: %+v", first.Faults)
	}
}

// TestRunSurvivesCrashOfEveryRelay crashes each chain relay in turn;
// no run may panic or violate an invariant, and the crash must be
// visible in the fault stats.
func TestRunSurvivesCrashOfEveryRelay(t *testing.T) {
	for relay := 1; relay <= 3; relay++ {
		top, err := ChainTopology(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Topology = top
		cfg.Duration = 6 * time.Second
		cfg.Window = 8
		cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
		cfg.Faults = []FaultEvent{
			{Kind: FaultNodeCrash, At: 2 * time.Second, Duration: 2 * time.Second, Node: relay},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("relay %d: %v", relay, err)
		}
		if res.InvariantViolations != 0 {
			t.Fatalf("relay %d: violations:\n%s", relay, res.InvariantReport())
		}
		if res.Faults.Crashes != 1 || res.Faults.Reboots != 1 {
			t.Fatalf("relay %d: fault stats %+v", relay, res.Faults)
		}
	}
}

// TestChaosScenarioGeneration checks the generator across a seed range:
// every seed must yield a valid, runnable Config, including negative
// seeds (the fuzzer feeds those).
func TestChaosScenarioGeneration(t *testing.T) {
	for _, seed := range []int64{-1 << 40, -7, 0, 1, 2, 3, 999, 1 << 40} {
		cfg, desc, err := ChaosScenario(seed, 2*time.Second)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if desc == "" {
			t.Fatalf("seed %d: empty description", seed)
		}
		if len(cfg.Flows) == 0 || len(cfg.Faults) == 0 {
			t.Fatalf("seed %d: degenerate scenario %s", seed, desc)
		}
		// Same seed, same scenario.
		again, desc2, err := ChaosScenario(seed, 2*time.Second)
		if err != nil || desc != desc2 || !reflect.DeepEqual(cfg.Faults, again.Faults) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
	// A sub-second duration is refused, not quietly replaced.
	if _, _, err := ChaosScenario(1, 500*time.Millisecond); err == nil {
		t.Fatal("a 500ms chaos scenario was generated")
	}
}

// FuzzChaosScenario drives the whole simulator through
// generator-produced scenarios: any panic, run error, or invariant
// violation fails the fuzz target.
func FuzzChaosScenario(f *testing.F) {
	for _, seed := range []int64{1, 17, 42, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg, desc, err := ChaosScenario(seed, time.Second)
		if err != nil {
			t.Fatalf("seed %d: generator: %v", seed, err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, desc, err)
		}
		if res.InvariantViolations != 0 {
			t.Fatalf("seed %d (%s): violations:\n%s", seed, desc, res.InvariantReport())
		}
	})
}
