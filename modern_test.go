package muzha

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// modernTestGrid is a reduced grid sized for unit-test wall-clock: two
// senders (one classical, one model-based) over the chain and Manhattan
// worlds, one seed, short runs.
func modernTestGrid() ModernGridConfig {
	return ModernGridConfig{
		Variants: []Variant{CUBIC, BBRLite},
		Worlds:   []string{ModernWorldChain, ModernWorldManhattan},
		Duration: 2 * time.Second,
		Seeds:    []int64{1},
		Window:   16,
	}
}

// TestModernGridDeterministic runs the reduced grid twice and demands
// row-for-row identical tables: the grid must be a pure function of its
// config, including the Manhattan mobility world and the paced sender.
func TestModernGridDeterministic(t *testing.T) {
	exp, err := ModernComparisonGrid(modernTestGrid())
	first := rowsOf[ModernGridRow](t, exp, err, SweepOptions{})
	exp, err = ModernComparisonGrid(modernTestGrid())
	second := rowsOf[ModernGridRow](t, exp, err, SweepOptions{})
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("grid not deterministic:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	wantRows := 2 * 2 * 2 // worlds x variants x assist
	if len(first) != wantRows {
		t.Fatalf("grid produced %d rows, want %d", len(first), wantRows)
	}
	for _, row := range first {
		if row.Seeds != 1 {
			t.Fatalf("cell %s/%s lost its seed: %+v", row.World, row.Variant, row)
		}
		if row.ThroughputBps <= 0 {
			t.Fatalf("cell %s/%s moved no data: %+v", row.World, row.Variant, row)
		}
	}
}

// TestModernGridResumeKeysWindow: a sweep resumed from a journal must
// only reuse runs of the identical configuration. A window-32 grid run
// against a journal a window-2 grid filled must recompute every cell
// and match an unjournaled window-32 grid.
func TestModernGridResumeKeysWindow(t *testing.T) {
	grid := func(window int, journal string) []ModernGridRow {
		exp, err := ModernComparisonGrid(ModernGridConfig{
			Variants: []Variant{NewReno},
			Worlds:   []string{ModernWorldChain},
			Duration: 2 * time.Second,
			Seeds:    []int64{1},
			Window:   window,
		})
		return rowsOf[ModernGridRow](t, exp, err, SweepOptions{Journal: journal})
	}
	journal := filepath.Join(t.TempDir(), "grid.jsonl")
	grid(2, journal)
	resumed := grid(32, journal)
	fresh := grid(32, "")
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("window-32 grid reused window-2 journal rows:\nresumed: %+v\nfresh:   %+v", resumed, fresh)
	}
}

func TestModernGridRejectsUnknownWorld(t *testing.T) {
	grid := modernTestGrid()
	grid.Worlds = []string{"atlantis"}
	if _, err := ModernComparisonGrid(grid); err == nil {
		t.Fatal("unknown world accepted")
	}
}

// TestPacingWidthInvariance extends the parallel-engine determinism
// contract to the new scheduling seams: a multi-domain world running
// paced CUBIC, BBR-lite and an auto-paced NewReno must produce the
// identical merged event stream and Result at every worker width.
func TestPacingWidthInvariance(t *testing.T) {
	islands, err := GridIslandsTopology(3, 2, 3, 1200)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	cfg.width = 1
	cfg.Pacing = true
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: CUBIC},
		{Src: fe[1][0], Dst: fe[1][1], Variant: BBRLite},
		{Src: fe[2][0], Dst: fe[2][1], Variant: NewReno},
	}
	if n := len(planDomains(cfg)); n < 2 {
		t.Fatalf("scenario is not multi-domain (%d domains); the test would prove nothing", n)
	}

	ref := goldenHash(t, cfg)
	refRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		pcfg := cfg
		pcfg.width = w
		if got := goldenHash(t, pcfg); got != ref {
			t.Errorf("workers=%d changed the paced event stream: %s vs %s", w, got, ref)
		}
		res, err := Run(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("workers=%d changed the paced Result", w)
		}
	}
}

// TestPacingChangesSchedulingOnlyWhenOn pins the tentpole's
// compatibility contract from the positive side: the same scenario with
// and without Config.Pacing produces different event streams (the knob
// does something), while two pacing-off runs reproduce each other (the
// default path is untouched).
func TestPacingChangesSchedulingOnlyWhenOn(t *testing.T) {
	top, err := ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 2 * time.Second
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: NewReno}}

	off1 := goldenHash(t, cfg)
	off2 := goldenHash(t, cfg)
	if off1 != off2 {
		t.Fatalf("pacing-off runs diverged: %s vs %s", off1, off2)
	}
	paced := cfg
	paced.Pacing = true
	if on := goldenHash(t, paced); on == off1 {
		t.Fatal("enabling pacing left the event stream untouched; the knob is dead")
	}
}
