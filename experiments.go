package muzha

import (
	"fmt"
	"time"
)

// This file packages the paper's Chapter 5 experiments as reusable
// drivers. Each function reproduces one table/figure family and returns
// the rows the paper plots; the bench harness (bench_test.go) and the CLI
// (cmd/muzhasim) are thin wrappers around these.
//
// Every driver executes its per-seed runs through the supervised worker
// pool (see SweepOptions): pass Parallel to fan the runs across cores,
// Journal to make an interrupted sweep resumable, and Guards to bound
// each run. Per-run Results are bit-for-bit identical at any worker
// count. A failed run no longer aborts the sweep — the surviving rows
// come back alongside a *SweepError naming what was lost, per class.

// ChainRow is one point of the Simulation 2 sweeps (Figures 5.8-5.13):
// a single flow over an h-hop chain at a given advertised window.
type ChainRow struct {
	Window          int
	Hops            int
	Variant         Variant
	ThroughputBps   float64
	Retransmissions float64
	Timeouts        float64
	Seeds           int
}

// ChainSweepConfig parameterizes ThroughputVsHops.
type ChainSweepConfig struct {
	Windows  []int
	Hops     []int
	Variants []Variant
	Duration time.Duration
	Seeds    []int64
	// Sweep supervises the runs (parallel workers, journal, guards).
	Sweep SweepOptions
}

// DefaultChainSweep mirrors Simulation 2: windows 4/8/32, hop counts 4 to
// 32, the four compared variants, 30-second runs.
func DefaultChainSweep() ChainSweepConfig {
	return ChainSweepConfig{
		Windows:  []int{4, 8, 32},
		Hops:     []int{4, 8, 12, 16, 24, 32},
		Variants: []Variant{NewReno, SACK, Vegas, Muzha},
		Duration: 30 * time.Second,
		Seeds:    []int64{1, 2, 3},
	}
}

// ThroughputVsHops runs the Simulation 2 sweep and returns one row per
// (window, hops, variant), averaged over the seeds that completed. With
// failures, the rows still come back (averaged over the surviving
// seeds, Seeds holding the survivor count) together with a *SweepError.
func ThroughputVsHops(sweep ChainSweepConfig) ([]ChainRow, error) {
	if len(sweep.Seeds) == 0 {
		sweep.Seeds = []int64{1}
	}
	var units []runUnit
	for _, w := range sweep.Windows {
		for _, hops := range sweep.Hops {
			top, err := ChainTopology(hops)
			if err != nil {
				return nil, err
			}
			for _, v := range sweep.Variants {
				for _, seed := range sweep.Seeds {
					cfg := DefaultConfig()
					cfg.Topology = top
					cfg.Duration = sweep.Duration
					cfg.Window = w
					cfg.Seed = seed
					cfg.Flows = []Flow{{Src: 0, Dst: hops, Variant: v}}
					units = append(units, runUnit{
						Key: fmt.Sprintf("chain/w=%d/h=%d/%s/seed=%d/d=%s", w, hops, v, seed, sweep.Duration),
						Cfg: cfg,
					})
				}
			}
		}
	}
	outs, err := runPool(units, sweep.Sweep)
	if err != nil {
		return nil, err
	}

	var rows []ChainRow
	i := 0
	for _, w := range sweep.Windows {
		for _, hops := range sweep.Hops {
			for _, v := range sweep.Variants {
				row := ChainRow{Window: w, Hops: hops, Variant: v}
				for range sweep.Seeds {
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

// CwndTraceResult is one Simulation 1 run (Figures 5.2-5.7): the
// congestion-window series of a single flow over an h-hop chain.
type CwndTraceResult struct {
	Hops    int
	Variant Variant
	Trace   []Sample
}

// CwndTraces reproduces Simulation 1: for each hop count and variant, a
// 10-second single-flow run with the congestion window recorded.
func CwndTraces(hops []int, variants []Variant, duration time.Duration, seed int64, opts ...SweepOptions) ([]CwndTraceResult, error) {
	var units []runUnit
	for _, h := range hops {
		top, err := ChainTopology(h)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			cfg := DefaultConfig()
			cfg.Topology = top
			cfg.Duration = duration
			cfg.Window = 32
			cfg.Seed = seed
			cfg.TraceCwnd = true
			cfg.Flows = []Flow{{Src: 0, Dst: h, Variant: v}}
			units = append(units, runUnit{
				Key: fmt.Sprintf("cwnd/h=%d/%s/seed=%d/d=%s", h, v, seed, duration),
				Cfg: cfg,
			})
		}
	}
	outs, err := runPool(units, sweepOpt(opts))
	if err != nil {
		return nil, err
	}

	var out []CwndTraceResult
	i := 0
	for _, h := range hops {
		for _, v := range variants {
			r := CwndTraceResult{Hops: h, Variant: v}
			if res := outs[i].Result; res != nil {
				r.Trace = res.Flows[0].CwndTrace
			}
			out = append(out, r)
			i++
		}
	}
	return out, sweepError(outs)
}

// SampleTrace downsamples a cwnd trace to fixed intervals (the value in
// force at each tick), for plotting and table output.
func SampleTrace(trace []Sample, step time.Duration, until time.Duration) []Sample {
	if step <= 0 || len(trace) == 0 {
		return nil
	}
	var out []Sample
	idx := 0
	last := trace[0].Value
	for at := time.Duration(0); at <= until; at += step {
		for idx < len(trace) && trace[idx].At <= at {
			last = trace[idx].Value
			idx++
		}
		out = append(out, Sample{At: at, Value: last})
	}
	return out
}

// FairnessRow is one Simulation 3A run (Figures 5.16-5.18): two crossing
// flows on an h-hop cross topology.
type FairnessRow struct {
	Hops          int
	Variants      [2]Variant
	ThroughputBps [2]float64
	JainIndex     float64
	Seeds         int
}

// CoexistenceFairness reproduces Simulation 3A: for each hop count and
// variant pairing, two crossing flows run for the given duration; returns
// per-flow throughput and Jain's index averaged over the completed seeds.
func CoexistenceFairness(hops []int, pairs [][2]Variant, duration time.Duration, seeds []int64, opts ...SweepOptions) ([]FairnessRow, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var units []runUnit
	for _, h := range hops {
		top, err := CrossTopology(h)
		if err != nil {
			return nil, err
		}
		fe := top.FlowEndpoints()
		for _, pair := range pairs {
			for _, seed := range seeds {
				cfg := DefaultConfig()
				cfg.Topology = top
				cfg.Duration = duration
				cfg.Window = 8
				cfg.Seed = seed
				cfg.Flows = []Flow{
					{Src: fe[0][0], Dst: fe[0][1], Variant: pair[0]},
					{Src: fe[1][0], Dst: fe[1][1], Variant: pair[1]},
				}
				units = append(units, runUnit{
					Key: fmt.Sprintf("fairness/h=%d/%s+%s/seed=%d/d=%s", h, pair[0], pair[1], seed, duration),
					Cfg: cfg,
				})
			}
		}
	}
	outs, err := runPool(units, sweepOpt(opts))
	if err != nil {
		return nil, err
	}

	var rows []FairnessRow
	i := 0
	for _, h := range hops {
		for _, pair := range pairs {
			row := FairnessRow{Hops: h, Variants: pair}
			for range seeds {
				if res := outs[i].Result; res != nil {
					row.Seeds++
					row.ThroughputBps[0] += res.Flows[0].ThroughputBps
					row.ThroughputBps[1] += res.Flows[1].ThroughputBps
					row.JainIndex += res.JainIndex
				}
				i++
			}
			if row.Seeds > 0 {
				n := float64(row.Seeds)
				row.ThroughputBps[0] /= n
				row.ThroughputBps[1] /= n
				row.JainIndex /= n
			}
			rows = append(rows, row)
		}
	}
	return rows, sweepError(outs)
}

// DynamicsResult is one Simulation 3B run (Figures 5.19-5.22): three
// same-variant flows entering a 4-hop chain at 0, 10 and 20 seconds.
type DynamicsResult struct {
	Variant Variant
	// Series holds each flow's binned throughput (bit/s).
	Series [3][]Sample
}

// ThroughputDynamics reproduces Simulation 3B for each variant. The
// flows enter at 0, 10 and 20 seconds as in the paper; for durations
// other than 30 s the stagger scales to thirds of the run.
func ThroughputDynamics(variants []Variant, duration time.Duration, bin time.Duration, seed int64, opts ...SweepOptions) ([]DynamicsResult, error) {
	top, err := ChainTopology(4)
	if err != nil {
		return nil, err
	}
	var units []runUnit
	for _, v := range variants {
		cfg := DefaultConfig()
		cfg.Topology = top
		cfg.Duration = duration
		cfg.Window = 8
		cfg.Seed = seed
		cfg.ThroughputBin = bin
		cfg.Flows = []Flow{
			{Src: 0, Dst: 4, Variant: v},
			{Src: 0, Dst: 4, Variant: v, Start: duration / 3},
			{Src: 0, Dst: 4, Variant: v, Start: 2 * duration / 3},
		}
		units = append(units, runUnit{
			Key: fmt.Sprintf("dynamics/%s/seed=%d/d=%s/bin=%s", v, seed, duration, bin),
			Cfg: cfg,
		})
	}
	outs, err := runPool(units, sweepOpt(opts))
	if err != nil {
		return nil, err
	}

	var out []DynamicsResult
	for i, v := range variants {
		dr := DynamicsResult{Variant: v}
		if res := outs[i].Result; res != nil {
			for f := 0; f < 3; f++ {
				dr.Series[f] = res.Flows[f].ThroughputSeries
			}
		}
		out = append(out, dr)
	}
	return out, sweepError(outs)
}
