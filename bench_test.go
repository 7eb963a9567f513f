package muzha

// The benchmark harness regenerates every table and figure of the paper's
// Chapter 5 evaluation, printing the same rows/series the paper plots.
// Absolute values differ from the authors' NS-2.29 testbed; the
// qualitative shape (who wins, by roughly what factor, where crossovers
// fall) is the reproduction target — see EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Output rows are emitted once per benchmark regardless of b.N.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"muzha/internal/core"
	"muzha/internal/packet"
)

// printOnce gates the row output so -benchtime multipliers don't repeat
// tables.
func printOnce(b *testing.B, i int, f func()) {
	if i == 0 {
		f()
	}
	_ = b
}

// BenchmarkFig5_2to5_7_CwndTrace regenerates Figures 5.2-5.7: the change
// of congestion window size for a single flow over 4-, 8- and 16-hop
// chains, 0-10 s.
func BenchmarkFig5_2to5_7_CwndTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces, err := CwndTraces([]int{4, 8, 16}, []Variant{NewReno, SACK, Vegas, Muzha}, 10*time.Second, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			for _, tr := range traces {
				samples := SampleTrace(tr.Trace, 500*time.Millisecond, 10*time.Second)
				fmt.Printf("fig5.2-5.7 hops=%d variant=%s cwnd@0.5s:", tr.Hops, tr.Variant)
				for _, s := range samples {
					fmt.Printf(" %.1f", s.Value)
				}
				fmt.Println()
			}
		})
	}
}

// BenchmarkFig5_8to5_10_Throughput regenerates Figures 5.8-5.10:
// throughput vs number of hops for window_ = 4, 8, 32.
func BenchmarkFig5_8to5_10_Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := ThroughputVsHops(DefaultChainSweep())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			for _, r := range rows {
				fmt.Printf("fig5.8-5.10 window=%d hops=%d variant=%-8s throughput_bps=%.0f\n",
					r.Window, r.Hops, r.Variant, r.ThroughputBps)
			}
		})
	}
}

// BenchmarkFig5_11to5_13_Retransmissions regenerates Figures 5.11-5.13:
// retransmissions vs number of hops for window_ = 4, 8, 32 (same sweep as
// the throughput figures; separated so each figure has its own target).
func BenchmarkFig5_11to5_13_Retransmissions(b *testing.B) {
	sweep := DefaultChainSweep()
	for i := 0; i < b.N; i++ {
		rows, err := ThroughputVsHops(sweep)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			for _, r := range rows {
				fmt.Printf("fig5.11-5.13 window=%d hops=%d variant=%-8s retransmissions=%.1f timeouts=%.1f\n",
					r.Window, r.Hops, r.Variant, r.Retransmissions, r.Timeouts)
			}
		})
	}
}

// BenchmarkFig5_14to5_18_Fairness regenerates Simulation 3A (Figures
// 5.15-5.18 with the Figure 5.14 Jain index): coexisting flows on 4-, 6-
// and 8-hop cross topologies.
func BenchmarkFig5_14to5_18_Fairness(b *testing.B) {
	pairs := [][2]Variant{{NewReno, Vegas}, {NewReno, Muzha}, {Muzha, Muzha}}
	for i := 0; i < b.N; i++ {
		rows, err := CoexistenceFairness([]int{4, 6, 8}, pairs, 50*time.Second, []int64{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			for _, r := range rows {
				fmt.Printf("fig5.16-5.18 hops=%d %s+%s: flow1=%.0f flow2=%.0f jain=%.3f\n",
					r.Hops, r.Variants[0], r.Variants[1],
					r.ThroughputBps[0], r.ThroughputBps[1], r.JainIndex)
			}
		})
	}
}

// BenchmarkFig5_19to5_22_Dynamics regenerates Simulation 3B (Figures
// 5.19-5.22): throughput dynamics of three staggered same-variant flows.
func BenchmarkFig5_19to5_22_Dynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := ThroughputDynamics([]Variant{Muzha, NewReno, SACK, Vegas}, 30*time.Second, time.Second, 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			for _, dr := range results {
				for fi, series := range dr.Series {
					fmt.Printf("fig5.19-5.22 variant=%-8s flow=%d kbps@1s:", dr.Variant, fi+1)
					for _, s := range series {
						fmt.Printf(" %.0f", s.Value/1000)
					}
					fmt.Println()
				}
			}
		})
	}
}

// BenchmarkTable5_2_DRAIFormula prints the DRAI action table (Table 5.2)
// as implemented, exercising ApplyDRAI for each level.
func BenchmarkTable5_2_DRAIFormula(b *testing.B) {
	names := map[int]string{
		5: "aggressive acceleration",
		4: "moderate acceleration",
		3: "stabilizing",
		2: "moderate deceleration",
		1: "aggressive deceleration",
	}
	for i := 0; i < b.N; i++ {
		printOnce(b, i, func() {
			const w = 8.0
			for level := 5; level >= 1; level-- {
				fmt.Printf("table5.2 DRAI=%d (%s): cwnd %g -> %g\n",
					level, names[level], w, core.ApplyDRAI(w, level))
			}
		})
	}
}

// BenchmarkTable4_1_MuzhaControl exercises the four Table 4.1 events on a
// live chain and prints the observed sender responses.
func BenchmarkTable4_1_MuzhaControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		top, err := ChainTopology(4)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Topology = top
		cfg.Duration = 30 * time.Second
		cfg.Window = 8
		cfg.PacketErrorRate = 0.01 // exercise random-loss handling too
		cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func() {
			f := res.Flows[0]
			fmt.Printf("table4.1 muzha with 1%% random loss: %0.f bit/s, %d fast-recoveries, %d timeouts, %d rexmit\n",
				f.ThroughputBps, f.FastRecoveries, f.Timeouts, f.Retransmissions)
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

func ablationChainRun(b *testing.B, mutate func(*Config)) FlowResult {
	b.Helper()
	top, err := ChainTopology(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 30 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Flows[0]
}

// BenchmarkAblationDRAILevels compares quantization depths: the paper's
// five levels vs a coarse three-level policy vs an ECN-like binary policy
// (the "extreme case" of Section 4.6).
func BenchmarkAblationDRAILevels(b *testing.B) {
	policies := []struct {
		name   string
		policy DRAIPolicy
	}{
		{"5-level", DefaultDRAIPolicy()},
		{"3-level", ThreeLevelDRAIPolicy()},
		{"binary", BinaryDRAIPolicy(0.04)},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			p := p
			f := ablationChainRun(b, func(c *Config) { c.DRAI = p.policy })
			printOnce(b, i, func() {
				fmt.Printf("ablation.drai-levels %-8s throughput=%.0f rexmit=%d timeouts=%d\n",
					p.name, f.ThroughputBps, f.Retransmissions, f.Timeouts)
			})
		}
	}
}

// BenchmarkAblationChannelGate compares the queue-only default DRAI
// policy against the channel-utilization-gated variant.
func BenchmarkAblationChannelGate(b *testing.B) {
	policies := []struct {
		name   string
		policy DRAIPolicy
	}{
		{"queue-only", DefaultDRAIPolicy()},
		{"channel-gated", ChannelAwareDRAIPolicy()},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			p := p
			f := ablationChainRun(b, func(c *Config) { c.DRAI = p.policy })
			printOnce(b, i, func() {
				fmt.Printf("ablation.channel-gate %-13s throughput=%.0f rexmit=%d timeouts=%d\n",
					p.name, f.ThroughputBps, f.Retransmissions, f.Timeouts)
			})
		}
	}
}

// BenchmarkAblationDelayDRAI compares the default queue-length DRAI with
// the delay-aware variant (the thesis' future-work refinement).
func BenchmarkAblationDelayDRAI(b *testing.B) {
	policies := []struct {
		name   string
		policy DRAIPolicy
	}{
		{"queue-only", DefaultDRAIPolicy()},
		{"delay-aware", DelayAwareDRAIPolicy()},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			p := p
			f := ablationChainRun(b, func(c *Config) { c.DRAI = p.policy })
			printOnce(b, i, func() {
				fmt.Printf("ablation.delay-drai %-11s throughput=%.0f rexmit=%d timeouts=%d\n",
					p.name, f.ThroughputBps, f.Retransmissions, f.Timeouts)
			})
		}
	}
}

// BenchmarkAblationMarkThreshold sweeps the congestion-marking level.
func BenchmarkAblationMarkThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, level := range []int{1, 2, 3} {
			level := level
			f := ablationChainRun(b, func(c *Config) {
				p := DefaultDRAIPolicy()
				p.MarkLevel = level
				c.DRAI = p
				c.ResidualLossRate = 0.01
			})
			printOnce(b, i, func() {
				fmt.Printf("ablation.mark-level level<=%d throughput=%.0f rexmit=%d timeouts=%d\n",
					level, f.ThroughputBps, f.Retransmissions, f.Timeouts)
			})
		}
	}
}

// BenchmarkAblationQueueDiscipline compares the paper's drop-tail IFQ
// against RED.
func BenchmarkAblationQueueDiscipline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, red := range []bool{false, true} {
			red := red
			f := ablationChainRun(b, func(c *Config) { c.UseRED = red })
			printOnce(b, i, func() {
				name := "droptail"
				if red {
					name = "red"
				}
				fmt.Printf("ablation.queue %-8s throughput=%.0f rexmit=%d\n", name, f.ThroughputBps, f.Retransmissions)
			})
		}
	}
}

// BenchmarkAblationRTSCTS compares RTS/CTS-protected against unprotected
// data frames.
func BenchmarkAblationRTSCTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			disable := disable
			f := ablationChainRun(b, func(c *Config) { c.DisableRTSCTS = disable })
			printOnce(b, i, func() {
				name := "rts-cts"
				if disable {
					name = "no-rts"
				}
				fmt.Printf("ablation.rtscts %-8s throughput=%.0f rexmit=%d\n", name, f.ThroughputBps, f.Retransmissions)
			})
		}
	}
}

// BenchmarkAblationLossDiscrimination measures the value of the Section
// 4.7 marked/unmarked dup-ACK classification under injected random loss.
func BenchmarkAblationLossDiscrimination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, per := range []float64{0, 0.01, 0.02} {
			for _, disc := range []bool{true, false} {
				per, disc := per, disc
				f := ablationChainRun(b, func(c *Config) {
					c.ResidualLossRate = per
					c.MuzhaLossDiscrimination = disc
				})
				printOnce(b, i, func() {
					fmt.Printf("ablation.discrimination residual=%.2f enabled=%-5v throughput=%.0f rexmit=%d timeouts=%d\n",
						per, disc, f.ThroughputBps, f.Retransmissions, f.Timeouts)
				})
			}
		}
	}
}

// BenchmarkAblationRoutingProtocol compares the paper's AODV substrate
// against DSR source routing under the same Muzha flow.
func BenchmarkAblationRoutingProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, useDSR := range []bool{false, true} {
			useDSR := useDSR
			f := ablationChainRun(b, func(c *Config) { c.UseDSR = useDSR })
			printOnce(b, i, func() {
				name := "aodv"
				if useDSR {
					name = "dsr"
				}
				fmt.Printf("ablation.routing %-5s throughput=%.0f rexmit=%d timeouts=%d\n",
					name, f.ThroughputBps, f.Retransmissions, f.Timeouts)
			})
		}
	}
}

// BenchmarkRelatedWorkComparison runs the Chapter 3 related-work
// protocols head-to-head with Muzha and NewReno on the 4-hop chain: the
// end-to-end estimators (Veno, Westwood), the router-assisted baselines
// (Jersey's ABE+CW, ECN-reactive NewReno) and the paper's contribution.
func BenchmarkRelatedWorkComparison(b *testing.B) {
	variants := []Variant{NewReno, Veno, Westwood, Jersey, ECNNewReno, Muzha}
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			v := v
			var thr, rex float64
			const nseeds = 3
			for seed := int64(1); seed <= nseeds; seed++ {
				top, err := ChainTopology(4)
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Topology = top
				cfg.Duration = 30 * time.Second
				cfg.Window = 8
				cfg.Seed = seed
				cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: v}}
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				thr += res.Flows[0].ThroughputBps / nseeds
				rex += float64(res.Flows[0].Retransmissions) / nseeds
			}
			printOnce(b, i, func() {
				fmt.Printf("relatedwork %-12s throughput=%.0f rexmit=%.1f\n", v, thr, rex)
			})
		}
	}
}

// BenchmarkExtensionBackgroundTraffic measures how each variant degrades
// when an unreactive CBR stream crosses its chain — an extension beyond
// the paper's background-traffic-free setup.
func BenchmarkExtensionBackgroundTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, v := range []Variant{NewReno, Vegas, Muzha} {
			for _, rate := range []float64{0, 100_000, 200_000} {
				v, rate := v, rate
				top, err := ChainTopology(4)
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Topology = top
				cfg.Duration = 30 * time.Second
				cfg.Window = 8
				cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: v}}
				if rate > 0 {
					cfg.Background = []BackgroundFlow{{Src: 4, Dst: 0, RateBps: rate}}
				}
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				printOnce(b, i, func() {
					ratio := 0.0
					if len(res.Background) > 0 {
						ratio = res.Background[0].DeliveryRatio
					}
					fmt.Printf("extension.background %-8s cbr=%.0fkbps tcp=%.0f cbr_delivery=%.2f\n",
						v, rate/1000, res.Flows[0].ThroughputBps, ratio)
				})
			}
		}
	}
}

// BenchmarkExtensionMobility measures each variant under the thesis'
// deferred mobility scenario: node 2 of the 4-hop chain roams at
// pedestrian-to-vehicle speeds, periodically severing the only path.
func BenchmarkExtensionMobility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, v := range []Variant{NewReno, Vegas, Muzha} {
			v := v
			var thr, disc float64
			const nseeds = 3
			for seed := int64(1); seed <= nseeds; seed++ {
				// 180 m spacing leaves roaming slack; the 800x200 field
				// keeps the relay mostly reachable with intermittent
				// breaks near the corners.
				top, err := ChainTopologySpaced(4, 180)
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Topology = top
				cfg.Duration = 60 * time.Second
				cfg.Window = 8
				cfg.Seed = seed
				cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: v}}
				cfg.Mobility = &Mobility{
					Width: 800, Height: 200,
					MinSpeed: 2, MaxSpeed: 10,
					Pause:       5 * time.Second,
					MobileNodes: []int{2},
				}
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				thr += res.Flows[0].ThroughputBps / nseeds
				for _, n := range res.Nodes {
					disc += float64(n.Discoveries) / nseeds
				}
			}
			printOnce(b, i, func() {
				fmt.Printf("extension.mobility %-8s throughput=%.0f discoveries=%.1f\n", v, thr, disc)
			})
		}
	}
}

// BenchmarkScenario4HopChain is a plain performance benchmark of the
// simulator itself: events per second for a saturated 4-hop chain.
func BenchmarkScenario4HopChain(b *testing.B) {
	top, err := ChainTopology(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Topology = top
		cfg.Duration = 5 * time.Second
		cfg.Window = 8
		cfg.Seed = int64(i + 1)
		cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// benchWidths enumerates the Config.Workers widths of the parallel
// scaling benchmarks: 1, 2, 4 and NumCPU. The output is identical at
// every width, so workers=N/workers=1 is the pure scaling ratio.
func benchWidths() []struct {
	name    string
	workers int
} {
	return []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=2", 2},
		{"workers=4", 4},
		{"workers=max", runtime.NumCPU()},
	}
}

// benchScenarioWidths runs cfg at every width as sub-benchmarks
// reporting events/s.
func benchScenarioWidths(b *testing.B, cfg Config) {
	for _, w := range benchWidths() {
		w := w
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				run := cfg
				run.Seed = int64(i + 1)
				run.Workers = w.workers
				res, err := Run(run)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkScenarioGrid is the multi-domain scaling workload: eight
// 5x5 grid islands (200 nodes) separated beyond carrier-sense range,
// one saturated corner-to-corner Muzha flow per island. Every island
// is an independent interaction domain, so the run gets eight-way
// parallelism to chew on.
func BenchmarkScenarioGrid(b *testing.B) {
	top, err := GridIslandsTopology(8, 5, 5, 1500)
	if err != nil {
		b.Fatal(err)
	}
	fe := top.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	cfg.Flows = make([]Flow, len(fe))
	for i, e := range fe {
		cfg.Flows[i] = Flow{Src: e[0], Dst: e[1], Variant: Muzha}
	}
	benchScenarioWidths(b, cfg)
}

// BenchmarkScenarioLargeRandom scatters 300 nodes over a 12x12 km
// field — hundreds of nodes, natural multi-domain structure — and runs
// one flow per sizable CSRange component between TX-connected
// endpoints, so traffic actually moves instead of stalling in route
// discovery.
func BenchmarkScenarioLargeRandom(b *testing.B) {
	top, err := RandomTopology(300, 12_000, 12_000, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	cfg.Flows = randomComponentFlows(b, cfg, 12)
	benchScenarioWidths(b, cfg)
}

// BenchmarkScenario1000Node is the node-scale gate: 16 islands of 8x8
// grid (1024 nodes) with 8 seeded intra-island flows each (128 flows,
// summary-only traces since 128 > DefaultTraceFlowLimit), AODV
// expanding-ring discovery on, bounded by the event-budget guard. The
// run gets sixteen-way parallelism; the committed
// events/s and allocs/op baselines in BENCH_sim.json catch node-scale
// regressions via cmd/benchgate.
func BenchmarkScenario1000Node(b *testing.B) {
	top, err := GridIslandsFlowsTopology(16, 8, 8, 1500, 8, 42)
	if err != nil {
		b.Fatal(err)
	}
	fe := top.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 3 * time.Second
	cfg.Window = 8
	cfg.ExpandingRing = true
	cfg.Guards.MaxEvents = 20_000_000 // the run takes ~5.3M; tripping means a blowup
	cfg.Flows = make([]Flow, len(fe))
	for i, e := range fe {
		cfg.Flows[i] = Flow{Src: e[0], Dst: e[1], Variant: Muzha}
	}
	if len(cfg.Flows) < 100 || top.Nodes() < 1000 {
		b.Fatalf("workload shrank: %d nodes, %d flows", top.Nodes(), len(cfg.Flows))
	}
	benchScenarioWidths(b, cfg)
}

// randomComponentFlows picks up to maxFlows deterministic flows for a
// random topology: for each interaction domain (largest first would be
// unstable — domain order is by smallest node), a flow from the
// domain's first node to its farthest TX-reachable member. Domains too
// small or with no reachable pair contribute nothing.
func randomComponentFlows(b *testing.B, cfg Config, maxFlows int) []Flow {
	b.Helper()
	tp := cfg.Topology.inner
	var flows []Flow
	for _, dom := range planDomains(cfg) {
		if len(dom) < 3 || len(flows) >= maxFlows {
			continue
		}
		src := dom[0]
		dst, best := -1, 0
		for _, cand := range dom[1:] {
			if h := tp.HopDistance(packet.NodeID(src), packet.NodeID(cand), 250); h > best {
				best, dst = h, cand
			}
		}
		if dst >= 0 {
			flows = append(flows, Flow{Src: src, Dst: dst, Variant: Muzha})
		}
	}
	if len(flows) == 0 {
		b.Fatal("random topology yielded no usable flows; change the seed")
	}
	return flows
}
