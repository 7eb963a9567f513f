package muzha

// Golden event-sequence determinism tests.
//
// Every engine event carries a (fire time, sequence number) pair; the
// ordered stream of those pairs is a complete fingerprint of a run's
// control flow — any change to scheduling order, timer behaviour, medium
// geometry or random-draw placement perturbs it. These tests hash the
// stream for four reference scenarios (static chain, two-flow cross,
// mobility, chaos with fault injection) and compare against committed
// fixtures, so engine optimizations must prove they changed nothing:
// the fixtures were generated on the pre-optimization engine and must
// keep matching bit-for-bit afterwards.
//
// Regenerate (only when an intentional semantic change occurs) with:
//
//	go test -run TestGoldenEventSequence -update-golden .

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"muzha/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_hashes.json from the current engine")

const goldenPath = "testdata/golden_hashes.json"

// goldenScenarios builds the reference configs. Each returns a fresh
// Config so hashing one scenario cannot leak state into the next.
func goldenScenarios(t *testing.T) map[string]Config {
	t.Helper()
	scenarios := make(map[string]Config)

	chain, err := ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = chain
	cfg.Duration = 5 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	scenarios["chain-4hop-muzha"] = cfg

	cross, err := CrossTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	fe := cross.FlowEndpoints()
	cfg = DefaultConfig()
	cfg.Topology = cross
	cfg.Duration = 5 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: NewReno},
		{Src: fe[1][0], Dst: fe[1][1], Variant: Muzha},
	}
	scenarios["cross-4hop-newreno-muzha"] = cfg

	mob, err := ChainTopologySpaced(4, 180)
	if err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig()
	cfg.Topology = mob
	cfg.Duration = 10 * time.Second
	cfg.Window = 8
	cfg.Seed = 3
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	cfg.Mobility = &Mobility{
		Width: 800, Height: 200,
		MinSpeed: 2, MaxSpeed: 10,
		Pause:       2 * time.Second,
		MobileNodes: []int{2},
	}
	scenarios["chain-4hop-mobility"] = cfg

	chaos, desc, err := ChaosScenario(7, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos scenario (seed 7): %s", desc)
	scenarios["chaos-seed7"] = chaos

	// Genuinely multi-domain topologies whose fixtures pin the merged
	// event stream; TestParallelWidthInvariance replays every scenario
	// at widths 0 through 8 and must reproduce these exact hashes. The
	// faulted variant exercises per-domain fault scoping, the mobility
	// variant exercises footprint-inflated partitioning.
	for name, cfg := range parallelGoldenScenarios(t) {
		scenarios[name] = cfg
	}

	return scenarios
}

// parallelGoldenScenarios builds the multi-domain reference configs
// shared by the golden fixture and the width-invariance tests.
func parallelGoldenScenarios(t *testing.T) map[string]Config {
	t.Helper()
	scenarios := make(map[string]Config)

	islands, err := GridIslandsTopology(3, 2, 3, 1200)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 3 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: NewReno},
		{Src: fe[2][0], Dst: fe[2][1], Variant: SACK},
	}
	scenarios["islands-3x-parallel"] = cfg

	faulted := cfg
	faulted.Seed = 11
	faulted.Flows = append([]Flow(nil), cfg.Flows...)
	faulted.Faults = []FaultEvent{
		{Kind: FaultNodeCrash, At: time.Second, Duration: 500 * time.Millisecond, Node: 1},
		{Kind: FaultLinkBlackout, At: 1500 * time.Millisecond, Duration: 400 * time.Millisecond, LinkA: 6, LinkB: 7},
		{Kind: FaultPartition, At: 2 * time.Second, Duration: 300 * time.Millisecond, Groups: [][]int{{0, 1, 2}, {3, 4, 5}}},
		{Kind: FaultBurstLoss, At: 500 * time.Millisecond, Duration: time.Second, BadLossRate: 0.4},
	}
	scenarios["islands-3x-faults-parallel"] = faulted

	mobile := cfg
	mobile.Seed = 5
	mobile.Flows = append([]Flow(nil), cfg.Flows...)
	// Node 1 roams a field confined to the first island, so the
	// conservative footprint keeps the other islands separate domains.
	mobile.Mobility = &Mobility{
		Width: 500, Height: 250,
		MinSpeed: 1, MaxSpeed: 8,
		Pause:       time.Second,
		MobileNodes: []int{1},
	}
	scenarios["islands-3x-mobility-parallel"] = mobile

	return scenarios
}

// goldenHash runs cfg with the event hook installed and returns
// "fnv64a(time,seq stream)-eventcount".
func goldenHash(t *testing.T, cfg Config) string {
	t.Helper()
	hash, _ := goldenRun(t, cfg)
	return hash
}

// goldenRun is goldenHash that also returns the run's Result.
func goldenRun(t *testing.T, cfg Config) (string, *Result) {
	t.Helper()
	h := fnv.New64a()
	var buf [16]byte
	cfg.eventHook = func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		h.Write(buf[:])
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("golden run failed: %v", err)
	}
	return fmt.Sprintf("%016x-%d", h.Sum64(), res.Events), res
}

func TestGoldenEventSequence(t *testing.T) {
	got := make(map[string]string)
	for name, cfg := range goldenScenarios(t) {
		got[name] = goldenHash(t, cfg)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", goldenPath, got)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}
	for name, wh := range want {
		if got[name] == "" {
			t.Errorf("%s: fixture has a scenario the test no longer builds", name)
			continue
		}
		if got[name] != wh {
			t.Errorf("%s: event sequence diverged: got %s, fixture %s", name, got[name], wh)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: scenario missing from fixture; rerun with -update-golden", name)
		}
	}
}

// TestGoldenHashRepeatable guards the harness itself: the same config
// must hash identically twice in-process, otherwise fixture mismatches
// would be noise rather than signal.
func TestGoldenHashRepeatable(t *testing.T) {
	chain, err := ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = chain
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	if a, b := goldenHash(t, cfg), goldenHash(t, cfg); a != b {
		t.Fatalf("identical configs hashed differently: %s vs %s", a, b)
	}
}
