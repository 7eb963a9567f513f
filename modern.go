package muzha

import (
	"fmt"
	"time"
)

// This file packages the modernized comparison grid (ROADMAP item 5):
// the paper's DRAI-vs-end-to-end question re-asked against modern
// senders. Where Chapter 5 compares NewReno/SACK/Vegas/Muzha on clean
// static chains, the modern grid pits {NewReno, Vegas, CUBIC, BBR-lite}
// x {router assist on/off} against three worlds — a static chain, a
// random-geometric field and a Manhattan-grid mobility scenario — all
// under Gilbert-Elliott burst loss and a RED bottleneck that ECN-marks
// instead of dropping, the conditions the PAPERS.md MANET studies treat
// as the standard evaluation axis.

// Modern-grid world names.
const (
	// ModernWorldChain is a static 6-hop chain.
	ModernWorldChain = "chain"
	// ModernWorldRGeo is a 24-node random-geometric field with one
	// seeded multi-hop flow pair.
	ModernWorldRGeo = "rgeo"
	// ModernWorldManhattan is a spaced chain whose middle relay roams
	// a Manhattan street grid, periodically stretching the route.
	ModernWorldManhattan = "manhattan"
)

// ModernWorlds lists the comparison-grid worlds in canonical order.
func ModernWorlds() []string {
	return []string{ModernWorldChain, ModernWorldRGeo, ModernWorldManhattan}
}

// ModernGridRow is one cell of the modern comparison grid, averaged
// over the seeds that completed.
type ModernGridRow struct {
	World           string
	Variant         Variant
	RouterAssist    bool
	ThroughputBps   float64
	Retransmissions float64
	Timeouts        float64
	Seeds           int
}

// ModernGridConfig parameterizes ModernComparisonGrid.
type ModernGridConfig struct {
	Variants []Variant
	Worlds   []string
	Duration time.Duration
	Seeds    []int64
	// Window is the advertised window in segments (default 32).
	Window int
	// Sweep supervises the runs (parallel workers, journal, guards).
	Sweep SweepOptions
}

// DefaultModernGrid returns the headline grid: the two strongest
// classical end-to-end senders plus the two modern ones, across all
// three worlds, 15-second runs over three seeds.
func DefaultModernGrid() ModernGridConfig {
	return ModernGridConfig{
		Variants: []Variant{NewReno, Vegas, CUBIC, BBRLite},
		Worlds:   ModernWorlds(),
		Duration: 15 * time.Second,
		Seeds:    []int64{1, 2, 3},
		Window:   32,
	}
}

// modernWorld builds one world's topology, flow endpoints and (for the
// Manhattan world) mobility block. The topology is independent of the
// run seed so every grid cell faces the same layout.
func modernWorld(world string) (Topology, [2]int, *Mobility, error) {
	switch world {
	case ModernWorldChain:
		top, err := ChainTopology(6)
		return top, [2]int{0, 6}, nil, err
	case ModernWorldRGeo:
		// Fixed generation seed: the field is part of the world
		// definition, not of the per-run randomness.
		top, err := RandomGeometricTopology(24, 2000, 2000, 1, 42)
		if err != nil {
			return Topology{}, [2]int{}, nil, err
		}
		fe := top.FlowEndpoints()
		if len(fe) == 0 {
			return Topology{}, [2]int{}, nil, fmt.Errorf("muzha: rgeo world generated no flow pair")
		}
		return top, fe[0], nil, nil
	case ModernWorldManhattan:
		// 180 m spacing leaves slack below the 250 m range, so the
		// roaming relay stretches routes without instantly severing
		// them (the same trick as the mobility golden scenario).
		top, err := ChainTopologySpaced(4, 180)
		if err != nil {
			return Topology{}, [2]int{}, nil, err
		}
		mob := &Mobility{
			Model:       MobilityManhattan,
			Width:       720,
			Height:      360,
			GridSpacing: 180,
			MinSpeed:    1,
			MaxSpeed:    3,
			MobileNodes: []int{2},
		}
		return top, [2]int{0, 4}, mob, nil
	default:
		return Topology{}, [2]int{}, nil, fmt.Errorf("muzha: unknown modern world %q", world)
	}
}

// ModernComparisonGrid runs the modernized Muzha comparison grid and
// returns one row per (world, variant, router-assist), averaged over
// the seeds that completed. Every cell runs under a Gilbert-Elliott
// burst-loss phase covering the middle half of the run and a RED
// bottleneck queue that ECN-marks instead of dropping. The table is
// deterministic: same config, same rows.
func ModernComparisonGrid(grid ModernGridConfig) ([]ModernGridRow, error) {
	if len(grid.Variants) == 0 {
		grid.Variants = DefaultModernGrid().Variants
	}
	if len(grid.Worlds) == 0 {
		grid.Worlds = ModernWorlds()
	}
	if grid.Duration <= 0 {
		grid.Duration = 15 * time.Second
	}
	if len(grid.Seeds) == 0 {
		grid.Seeds = []int64{1}
	}
	if grid.Window <= 0 {
		grid.Window = 32
	}

	assists := []bool{true, false}
	var cfgs []Config
	for _, world := range grid.Worlds {
		top, fe, mob, err := modernWorld(world)
		if err != nil {
			return nil, err
		}
		for _, v := range grid.Variants {
			for _, assist := range assists {
				for _, seed := range grid.Seeds {
					cfg := DefaultConfig()
					cfg.Topology = top
					cfg.Duration = grid.Duration
					cfg.Window = grid.Window
					cfg.Seed = seed
					cfg.RouterAssist = assist
					// The assist axis is live for end-to-end senders:
					// with RouterAssist on, every flow becomes a
					// core.DRAIClamped hybrid (router recommendations
					// as a deceleration-only ceiling).
					cfg.DRAIClamp = assist
					cfg.UseRED = true
					cfg.REDMarkECN = true
					cfg.Mobility = mob
					cfg.Flows = []Flow{{Src: fe[0], Dst: fe[1], Variant: v}}
					cfg.Faults = []FaultEvent{{
						Kind:            FaultBurstLoss,
						At:              grid.Duration / 4,
						Duration:        grid.Duration / 2,
						BadLossRate:     0.3,
						MeanBurstFrames: 6,
						MeanGapFrames:   150,
					}}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}

	outs, err := runPool(cfgs, grid.Sweep)
	if err != nil {
		return nil, err
	}

	var rows []ModernGridRow
	i := 0
	for _, world := range grid.Worlds {
		for _, v := range grid.Variants {
			for _, assist := range assists {
				row := ModernGridRow{World: world, Variant: v, RouterAssist: assist}
				for range grid.Seeds {
					if res := outs[i].Result; res != nil {
						row.Seeds++
						row.ThroughputBps += res.Flows[0].ThroughputBps
						row.Retransmissions += float64(res.Flows[0].Retransmissions)
						row.Timeouts += float64(res.Flows[0].Timeouts)
					}
					i++
				}
				if row.Seeds > 0 {
					n := float64(row.Seeds)
					row.ThroughputBps /= n
					row.Retransmissions /= n
					row.Timeouts /= n
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, sweepError(outs)
}
