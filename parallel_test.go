package muzha

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Parallel-engine proof tests.
//
// One determinism contract, pinned here: every scenario produces the
// same event stream and the same Result at every width, so worker
// scheduling is unobservable. It is checked in two classes:
//
//   - Single-domain identity: every single-domain golden scenario runs
//     as one domain with the run seed itself, so it must be identical
//     at any width.
//   - Width invariance: multi-domain scenarios must produce the same
//     merged event stream and the same Result at every width.

// testWidths are the widths the invariance tests replay: 0 leaves
// Run's own width, GOMAXPROCS.
var testWidths = []int{0, 1, 2, 4, 8}

// assertWidthInvariant runs cfg at every test width and fails on any
// change of the event stream or the Result against the first width.
func assertWidthInvariant(t *testing.T, cfg Config) {
	t.Helper()
	var ref string
	var refRes *Result
	for _, w := range testWidths {
		cfg.width = w
		hash, res := goldenRun(t, cfg)
		if refRes == nil {
			ref, refRes = hash, res
			continue
		}
		if hash != ref {
			t.Errorf("workers=%d changed the event stream: %s vs %s", w, hash, ref)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("workers=%d changed the Result", w)
		}
	}
}

func TestParallelFallbackIdentical(t *testing.T) {
	multi := parallelGoldenScenarios(t)
	for name, cfg := range goldenScenarios(t) {
		if _, ok := multi[name]; ok {
			continue // multi-domain scenarios are covered below
		}
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			if n := len(planDomains(cfg)); n != 1 {
				t.Fatalf("scenario is not single-domain (%d domains)", n)
			}
			assertWidthInvariant(t, cfg)
		})
	}
}

func TestParallelWidthInvariance(t *testing.T) {
	for name, cfg := range parallelGoldenScenarios(t) {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			if n := len(planDomains(cfg)); n < 2 {
				t.Fatalf("scenario is not multi-domain (%d domains); the test would prove nothing", n)
			}
			assertWidthInvariant(t, cfg)
		})
	}
}

// TestPacketTraceObservesDecomposedRun proves PacketTrace is a pure
// observer of a multi-domain run: tracing leaves the Result unchanged,
// the merged trace is byte-identical at widths 1 and 4, and every
// transport send is renumbered to its flow's global source node.
func TestPacketTraceObservesDecomposedRun(t *testing.T) {
	cfg := parallelGoldenScenarios(t)["islands-3x-parallel"]
	cfg.width = 1
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced := func(workers int) string {
		var sb strings.Builder
		c := cfg
		c.width = workers
		c.PacketTrace = &sb
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, plain) {
			t.Fatalf("workers=%d: tracing changed the Result (%d events, untraced %d)", workers, res.Events, plain.Events)
		}
		return sb.String()
	}
	one, four := traced(1), traced(4)
	if one != four {
		t.Fatal("merged packet trace differs between widths 1 and 4")
	}

	send := regexp.MustCompile(`(?m)^s \S+ _(\d+)_ data \d+ f(\d+) seq=`)
	seen := make(map[int]bool)
	for _, m := range send.FindAllStringSubmatch(one, -1) {
		node, _ := strconv.Atoi(m[1])
		flow, _ := strconv.Atoi(m[2])
		if flow < 1 || flow > len(cfg.Flows) || cfg.Flows[flow-1].Src != node {
			t.Fatalf("send of flow %d traced at node %d", flow, node)
		}
		seen[flow] = true
	}
	if len(seen) != len(cfg.Flows) {
		t.Fatalf("trace has data sends of %d flows, want %d", len(seen), len(cfg.Flows))
	}
}

// TestParallelMobilityRepartition proves the conservative footprint
// keeps re-partitioning under SetPosition sound: a mobile node roams
// its whole field across the run (many SetPosition epochs), the static
// islands stay separate domains, and the merged stream is identical at
// every width.
func TestParallelMobilityRepartition(t *testing.T) {
	islands, err := GridIslandsTopology(2, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 4 * time.Second
	cfg.Window = 8
	cfg.Seed = 9
	cfg.width = 1
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: Muzha},
	}
	// The field spans island 0 with margin; its footprint stays far
	// beyond CSRange of island 1 (which starts at x=2250).
	cfg.Mobility = &Mobility{
		Width: 600, Height: 400,
		MinSpeed: 5, MaxSpeed: 15,
		Pause:       200 * time.Millisecond,
		MobileNodes: []int{1},
	}
	domains := planDomains(cfg)
	if len(domains) != 2 {
		t.Fatalf("expected 2 domains, got %v", domains)
	}
	ref := goldenHash(t, cfg)
	for _, w := range testWidths[1:] {
		pcfg := cfg
		pcfg.width = w
		if got := goldenHash(t, pcfg); got != ref {
			t.Errorf("workers=%d diverged under mobility: %s vs %s", w, got, ref)
		}
	}
}

func TestPlanDomainsCouplesFlows(t *testing.T) {
	islands, err := GridIslandsTopology(2, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = time.Second
	// A flow spanning islands must weld them into one domain: its two
	// endpoints need a shared timeline even though no frame can cross.
	cfg.Flows = []Flow{{Src: 0, Dst: 7}}
	if n := len(planDomains(cfg)); n != 1 {
		t.Fatalf("cross-island flow must couple the islands, got %d domains", n)
	}
	cfg.Flows = []Flow{{Src: 0, Dst: 3}}
	if n := len(planDomains(cfg)); n != 2 {
		t.Fatalf("intra-island flow must keep 2 domains, got %d", n)
	}
}

// TestParallelProgressAndCancel exercises the observer plumbing of a
// multi-domain run at widths GOMAXPROCS, 2 and 4: progress snapshots arrive
// serialized, their virtual time and event count never decrease, the
// terminal snapshot carries the total event count, and a pre-closed
// Cancel aborts every domain.
func TestParallelProgressAndCancel(t *testing.T) {
	islands, err := GridIslandsTopology(4, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	base := DefaultConfig()
	base.Topology = islands
	base.Duration = 2 * time.Second
	base.Window = 8
	for i := range fe {
		base.Flows = append(base.Flows, Flow{Src: fe[i][0], Dst: fe[i][1]})
	}

	for _, width := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", width), func(t *testing.T) {
			cfg := base
			cfg.width = width
			var updates []ProgressUpdate
			cfg.Progress = func(u ProgressUpdate) { updates = append(updates, u) }
			cfg.progressEvery = 1 << 8
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(updates) == 0 {
				t.Fatal("no progress updates from multi-domain run")
			}
			for i := 1; i < len(updates); i++ {
				if prev, u := updates[i-1], updates[i]; u.SimTime < prev.SimTime || u.Events < prev.Events {
					t.Fatalf("snapshot %d went backwards: %+v after %+v", i, u, prev)
				}
			}
			last := updates[len(updates)-1]
			if last.Events != res.Events {
				t.Errorf("terminal snapshot events = %d, result has %d", last.Events, res.Events)
			}
			if last.SimTime != cfg.Duration {
				t.Errorf("terminal snapshot sim time = %v, want %v", last.SimTime, cfg.Duration)
			}

			cancel := make(chan struct{})
			close(cancel)
			cfg.Progress = nil
			cfg.Cancel = cancel
			cfg.Guards = RunGuards{LivelockWindow: 1 << 20}
			if _, err := Run(cfg); err == nil {
				t.Fatal("pre-closed Cancel must abort the multi-domain run")
			}
		})
	}
}

// TestProgressSingleDomain pins progress on a single-domain run, where
// snapshots ride the guard tick: unguarded (the tick runs every
// progress period) and beside a Cancel poll whose 1024-event period
// does not divide the progress period. Snapshots never go backwards, at
// most one falls in each progress period, the last one carries
// the run's totals, and the golden event hash is the one the run has
// without progress.
func TestProgressSingleDomain(t *testing.T) {
	cfg := goldenScenarios(t)["chain-4hop-muzha"]
	want := goldenHash(t, cfg)
	for name, cancel := range map[string]chan struct{}{"unguarded": nil, "with-cancel": make(chan struct{})} {
		t.Run(name, func(t *testing.T) {
			c := cfg
			c.Cancel = cancel
			c.progressEvery = 3000
			var updates []ProgressUpdate
			c.Progress = func(u ProgressUpdate) { updates = append(updates, u) }
			got, res := goldenRun(t, c)
			if got != want {
				t.Fatalf("progress changed the event stream: %s, want %s", got, want)
			}
			if n := uint64(len(updates)); n < 2 || n > res.Events/c.progressEvery+1 {
				t.Fatalf("%d snapshots for %d events at every %d", n, res.Events, c.progressEvery)
			}
			for i := 1; i < len(updates); i++ {
				prev, u := updates[i-1], updates[i]
				if u.SimTime < prev.SimTime || u.Events < prev.Events {
					t.Fatalf("snapshot %d went backwards: %+v after %+v", i, u, prev)
				}
				if i < len(updates)-1 && u.Events/c.progressEvery <= prev.Events/c.progressEvery {
					t.Fatalf("snapshots %d and %d fall in one %d-event period: %+v, %+v", i-1, i, c.progressEvery, prev, u)
				}
			}
			if last := updates[len(updates)-1]; last.Events != res.Events || last.SimTime != cfg.Duration {
				t.Fatalf("terminal snapshot %+v, want %d events at %v", last, res.Events, cfg.Duration)
			}
		})
	}
}

// TestParallelRaceSweep drives genuinely concurrent multi-domain runs
// (full fault mix, mobility, background traffic) at NumCPU workers so
// `go test -race` patrols the worker pool, the progress aggregation
// and the merge. It also cross-checks width invariance once more on
// the fault-heavy config.
func TestParallelRaceSweep(t *testing.T) {
	islands, err := GridIslandsTopology(4, 2, 2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	base := DefaultConfig()
	base.Topology = islands
	base.Duration = 2 * time.Second
	base.Window = 8
	base.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: NewReno},
		{Src: fe[2][0], Dst: fe[2][1], Variant: Vegas},
		{Src: fe[3][0], Dst: fe[3][1], Variant: Muzha},
	}
	base.Background = []BackgroundFlow{{Src: 4, Dst: 7, RateBps: 64_000, PacketSize: 256, Start: 500 * time.Millisecond}}
	base.Faults = []FaultEvent{
		{Kind: FaultNodeCrash, At: 600 * time.Millisecond, Duration: 300 * time.Millisecond, Node: 5},
		{Kind: FaultLinkBlackout, At: 800 * time.Millisecond, Duration: 300 * time.Millisecond, LinkA: 8, LinkB: 9},
		{Kind: FaultPartition, At: time.Second, Duration: 200 * time.Millisecond, Groups: [][]int{{0, 1}, {2, 3}}},
		{Kind: FaultBurstLoss, At: 300 * time.Millisecond, Duration: time.Second, BadLossRate: 0.3},
	}
	base.Mobility = &Mobility{
		Width: 400, Height: 300,
		MinSpeed: 1, MaxSpeed: 10,
		Pause:       time.Second,
		MobileNodes: []int{2},
	}

	width := runtime.NumCPU()
	if width < 2 {
		width = 2
	}
	var ref *Result
	for seed := int64(1); seed <= 3; seed++ {
		cfg := base
		cfg.Seed = seed
		cfg.width = width
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 1 {
			cfg.width = 1
			ref, err = Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("seed 1: workers=%d result differs from workers=1", width)
			}
		}
		if res.Faults.Crashes == 0 || res.Faults.BurstPhases == 0 {
			t.Errorf("seed %d: fault mix not exercised: %+v", seed, res.Faults)
		}
	}
}

// TestSubSeedDistinct guards the per-domain seed derivation: domains of
// one run, and the same domain across neighboring run seeds, must get
// distinct RNG streams.
func TestSubSeedDistinct(t *testing.T) {
	seen := make(map[int64]string)
	for seed := int64(0); seed < 8; seed++ {
		for d := 0; d < 8; d++ {
			s := subSeed(seed, d)
			key := fmt.Sprintf("seed=%d domain=%d", seed, d)
			if prev, ok := seen[s]; ok {
				t.Fatalf("subSeed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
