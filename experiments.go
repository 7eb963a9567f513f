package muzha

import (
	"fmt"
	"strings"
	"time"

	"muzha/internal/core"
	"muzha/internal/plot"
)

// This file is the one registry of the paper's results. Each figure,
// table, ablation, related-work and extension family that
// EXPERIMENTS.md reports is one Experiment: its runs as Configs, how
// their Results reduce to rows, the rows' renderings (text lines, a
// markdown block, CSV, SVG charts) and the paper claims the rows
// decide (claims.go). RunExperiments runs every distinct cell of a set
// of experiments once, so experiments that share a cell share its run,
// and muzhasim -exp, muzhaplot, muzhareport and the claim tests all
// read the same numbers.

// Experiment is one result family.
type Experiment struct {
	// Name keys the family: the prefix of its text rows and the name
	// of its generated block in EXPERIMENTS.md.
	Name string
	// Cells are the family's runs.
	Cells []Config
	// claims are the paper claims the family's rows decide.
	claims []Claim
	// reduce turns the cells' Results, in cell order and nil where a
	// run failed, into the family's rows and their renderings.
	reduce func(res []*Result) Output
}

// Output is one experiment's rows and their renderings.
type Output struct {
	Name string
	// Rows are the reduced rows: []ChainRow, []CwndTraceResult,
	// []FairnessRow, []DynamicsResult, []ModernGridRow or []ArmRow.
	Rows any
	// Text is one line per row (per trace, for series).
	Text []string
	// Markdown is the family's block in EXPERIMENTS.md: a table, or
	// the fenced text lines.
	Markdown string
	// CSV is muzhasim's rendering, header line first; nil for families
	// muzhasim does not print.
	CSV []string
	// Charts are the family's SVG figures.
	Charts []Chart
	// Claims are the family's claims judged on Rows.
	Claims []Verdict
}

// Chart is one SVG figure and the file it is written to.
type Chart struct {
	File string
	plot.Chart
}

// RunExperiments runs the cells of exps on the supervised pool, each
// distinct Config.Hash once however many experiments list it, and
// reduces each experiment over its cells' Results. It returns one
// Output per experiment, in order, and a *SweepError over the distinct
// runs when any failed; a harness error (an unhashable config, an
// unopenable result store) returns no Outputs.
func RunExperiments(exps []*Experiment, opt SweepOptions) ([]Output, error) {
	var cfgs []Config
	var keys []string
	index := make(map[string]int)
	slots := make([][]int, len(exps))
	for i, e := range exps {
		for _, cfg := range e.Cells {
			key, err := cfg.Hash()
			if err != nil {
				return nil, err
			}
			k, ok := index[key]
			if !ok {
				k = len(cfgs)
				index[key] = k
				cfgs = append(cfgs, cfg)
				keys = append(keys, key)
			}
			slots[i] = append(slots[i], k)
		}
	}
	runs, err := runPool(cfgs, keys, opt)
	if err != nil {
		return nil, err
	}
	outs := make([]Output, len(exps))
	for i, e := range exps {
		res := make([]*Result, len(slots[i]))
		for j, k := range slots[i] {
			res[j] = runs[k].Result
		}
		o := e.reduce(res)
		o.Name = e.Name
		for _, c := range e.claims {
			o.Claims = append(o.Claims, c.judgeRows(o.Rows))
		}
		outs[i] = o
	}
	return outs, sweepError(runs)
}

// Registry returns every result family EXPERIMENTS.md reports, in
// document order, with the paper claims each one decides. The first 18
// print the rows the paper's figures, tables, ablations, related work
// and extensions were first printed as.
func Registry() []*Experiment {
	paper := []Variant{NewReno, SACK, Vegas, Muzha}
	sweep := DefaultChainSweep()
	cwnd := must(CwndTraces([]int{4, 8, 16}, paper, 10*time.Second, 1))
	thr := must(ThroughputVsHops(sweep))
	rex := must(RetransmissionsVsHops(sweep))
	pairs := [][2]Variant{{NewReno, Vegas}, {NewReno, Muzha}, {Muzha, Muzha}}
	fair := must(CoexistenceFairness([]int{4, 6, 8}, pairs, 50*time.Second, []int64{1, 2, 3, 4, 5, 6, 7, 8}))
	dyn := must(ThroughputDynamics([]Variant{Muzha, NewReno, SACK, Vegas}, 30*time.Second, time.Second, 1))
	loss := lossDiscrimination()
	cwnd.claims, thr.claims, rex.claims, fair.claims, dyn.claims, loss.claims =
		cwndClaims, chainClaims, retxClaims, fairnessClaims, dynamicsClaims, lossClaims
	exps := []*Experiment{cwnd, thr, rex, fair, dyn, table52(), table41()}
	exps = append(exps, ablations()...)
	return append(exps, relatedWork(), backgroundTraffic(), mobility(), loss, must(ModernComparisonGrid(DefaultModernGrid())))
}

// must unwraps a constructor whose arguments are constants.
func must(e *Experiment, err error) *Experiment {
	if err != nil {
		panic(err)
	}
	return e
}

// FlowMeans are a single-flow run's numbers averaged over the seeds
// that completed.
type FlowMeans struct {
	ThroughputBps   float64
	Retransmissions float64
	Timeouts        float64
	Seeds           int
}

// flowMeans averages the first flow of the runs that completed.
func flowMeans(res []*Result) FlowMeans {
	var m FlowMeans
	for _, r := range res {
		if r != nil {
			m.Seeds++
			m.ThroughputBps += r.Flows[0].ThroughputBps
			m.Retransmissions += float64(r.Flows[0].Retransmissions)
			m.Timeouts += float64(r.Flows[0].Timeouts)
		}
	}
	if m.Seeds > 0 {
		n := float64(m.Seeds)
		m.ThroughputBps /= n
		m.Retransmissions /= n
		m.Timeouts /= n
	}
	return m
}

// ChainRow is one point of the Simulation 2 sweeps (Figures 5.8-5.13):
// a single flow over an h-hop chain at a given advertised window.
type ChainRow struct {
	Window  int
	Hops    int
	Variant Variant
	FlowMeans
}

// ChainSweepConfig parameterizes the Simulation 2 sweep.
type ChainSweepConfig struct {
	Windows  []int
	Hops     []int
	Variants []Variant
	Duration time.Duration
	// Seeds are averaged per cell; empty means seed 1.
	Seeds []int64
}

// DefaultChainSweep mirrors Simulation 2: windows 4/8/32, hop counts 4 to
// 32, the four compared variants, 30-second runs, seeds 1-3.
func DefaultChainSweep() ChainSweepConfig {
	return ChainSweepConfig{
		Windows:  []int{4, 8, 32},
		Hops:     []int{4, 8, 12, 16, 24, 32},
		Variants: []Variant{NewReno, SACK, Vegas, Muzha},
		Duration: 30 * time.Second,
		Seeds:    []int64{1, 2, 3},
	}
}

// chainCell is one flow of v from node 0 to node hops of top.
func chainCell(top Topology, hops, window int, d time.Duration, seed int64, v Variant) Config {
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = d
	cfg.Window = window
	cfg.Seed = seed
	cfg.Flows = []Flow{{Src: 0, Dst: hops, Variant: v}}
	return cfg
}

// ThroughputVsHops is Figures 5.8-5.10: throughput against hop count,
// one figure per window.
func ThroughputVsHops(s ChainSweepConfig) (*Experiment, error) {
	return chainFamily(s, "fig5.8-5.10", func(r ChainRow) string {
		return fmt.Sprintf("throughput_bps=%.0f", r.ThroughputBps)
	}, "%.0f", "fig5.8-5.10_throughput_w%d.svg", "Throughput vs Number of Hops (window_=%d)", "throughput (bit/s)",
		func(r ChainRow) float64 { return r.ThroughputBps })
}

// RetransmissionsVsHops is Figures 5.11-5.13: retransmissions against
// hop count, over the same cells as ThroughputVsHops.
func RetransmissionsVsHops(s ChainSweepConfig) (*Experiment, error) {
	return chainFamily(s, "fig5.11-5.13", func(r ChainRow) string {
		return fmt.Sprintf("retransmissions=%.1f timeouts=%.1f", r.Retransmissions, r.Timeouts)
	}, "%.1f", "fig5.11-5.13_retransmissions_w%d.svg", "Retransmissions vs Number of Hops (window_=%d)", "retransmitted segments",
		func(r ChainRow) float64 { return r.Retransmissions })
}

// chainFamily lays the sweep's cells out window-major, then by hops,
// variant and seed, and reduces them to one ChainRow per (window, hops,
// variant). A row's text line ends in metric; the markdown table has a
// row per (window, hops) and a column per variant, and each window gets
// a figure with a series per variant, both of y. The CSV carries every
// mean.
func chainFamily(s ChainSweepConfig, name string, metric func(ChainRow) string, cell, file, title, ylabel string, y func(ChainRow) float64) (*Experiment, error) {
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	var cells []Config
	for _, w := range s.Windows {
		for _, h := range s.Hops {
			top, err := ChainTopology(h)
			if err != nil {
				return nil, err
			}
			for _, v := range s.Variants {
				for _, seed := range s.Seeds {
					cells = append(cells, chainCell(top, h, w, s.Duration, seed, v))
				}
			}
		}
	}
	return &Experiment{Name: name, Cells: cells, reduce: func(res []*Result) Output {
		o := Output{CSV: []string{"window,hops,variant,throughput_bps,retransmissions,timeouts"}}
		var rows []ChainRow
		header := []string{"window", "hops"}
		for _, v := range s.Variants {
			header = append(header, string(v))
		}
		var body [][]string
		for _, w := range s.Windows {
			for _, h := range s.Hops {
				body = append(body, []string{fmt.Sprint(w), fmt.Sprint(h)})
				for _, v := range s.Variants {
					r := ChainRow{Window: w, Hops: h, Variant: v, FlowMeans: flowMeans(res[:len(s.Seeds)])}
					res = res[len(s.Seeds):]
					rows = append(rows, r)
					o.Text = append(o.Text, fmt.Sprintf("%s window=%d hops=%d variant=%-8s %s", name, w, h, v, metric(r)))
					o.CSV = append(o.CSV, fmt.Sprintf("%d,%d,%s,%.0f,%.1f,%.1f", w, h, v, r.ThroughputBps, r.Retransmissions, r.Timeouts))
					body[len(body)-1] = append(body[len(body)-1], fmt.Sprintf(cell, y(r)))
				}
			}
		}
		for _, w := range s.Windows {
			c := Chart{File: fmt.Sprintf(file, w), Chart: plot.Chart{Title: fmt.Sprintf(title, w), XLabel: "hops", YLabel: ylabel}}
			for _, v := range s.Variants {
				sr := plot.Series{Name: string(v)}
				for _, r := range rows {
					if r.Window == w && r.Variant == v {
						sr.X = append(sr.X, float64(r.Hops))
						sr.Y = append(sr.Y, y(r))
					}
				}
				c.Series = append(c.Series, sr)
			}
			o.Charts = append(o.Charts, c)
		}
		o.Rows, o.Markdown = rows, mdTable(header, body)
		return o
	}}, nil
}

// CwndTraceResult is one Simulation 1 run (Figures 5.2-5.7): the
// congestion-window series of a single flow over an h-hop chain.
type CwndTraceResult struct {
	Hops    int
	Variant Variant
	Trace   []Sample
}

// CwndTraces is Simulation 1: for each hop count and variant, one
// single-flow run at window 32 with the congestion window recorded.
func CwndTraces(hops []int, variants []Variant, d time.Duration, seed int64) (*Experiment, error) {
	var cells []Config
	for _, h := range hops {
		top, err := ChainTopology(h)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			cfg := chainCell(top, h, 32, d, seed, v)
			cfg.TraceCwnd = true
			cells = append(cells, cfg)
		}
	}
	return &Experiment{Name: "fig5.2-5.7", Cells: cells, reduce: func(res []*Result) Output {
		var rows []CwndTraceResult
		for i, cfg := range cells {
			r := CwndTraceResult{Hops: cfg.Flows[0].Dst, Variant: cfg.Flows[0].Variant}
			if res[i] != nil {
				r.Trace = res[i].Flows[0].CwndTrace
			}
			rows = append(rows, r)
		}
		o := Output{Rows: rows, CSV: []string{"hops,variant,time_s,cwnd"}}
		for _, tr := range rows {
			line := fmt.Sprintf("fig5.2-5.7 hops=%d variant=%s cwnd@0.5s:", tr.Hops, tr.Variant)
			for _, s := range SampleTrace(tr.Trace, 500*time.Millisecond, d) {
				line += fmt.Sprintf(" %.1f", s.Value)
			}
			o.Text = append(o.Text, line)
			for _, s := range SampleTrace(tr.Trace, 100*time.Millisecond, d) {
				o.CSV = append(o.CSV, fmt.Sprintf("%d,%s,%.1f,%.2f", tr.Hops, tr.Variant, s.At.Seconds(), s.Value))
			}
		}
		for _, h := range hops {
			c := Chart{File: fmt.Sprintf("fig5.2-5.7_cwnd_%dhop.svg", h), Chart: plot.Chart{
				Title: fmt.Sprintf("Change of Congestion Window Size (%d-hop chain)", h), XLabel: "time (s)", YLabel: "cwnd (segments)",
			}}
			for _, tr := range rows {
				if tr.Hops == h {
					c.Series = append(c.Series, series(string(tr.Variant), SampleTrace(tr.Trace, 100*time.Millisecond, d)))
				}
			}
			o.Charts = append(o.Charts, c)
		}
		o.Markdown = fenced(o.Text)
		return o
	}}, nil
}

// series plots samples against seconds.
func series(name string, samples []Sample) plot.Series {
	s := plot.Series{Name: name}
	for _, p := range samples {
		s.X = append(s.X, p.At.Seconds())
		s.Y = append(s.Y, p.Value)
	}
	return s
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

// FairnessRow is one Simulation 3A point (Figures 5.16-5.18): two
// crossing flows on an h-hop cross topology, averaged over the seeds
// that completed.
type FairnessRow struct {
	Hops          int
	Variants      [2]Variant
	ThroughputBps [2]float64
	JainIndex     float64
	Seeds         int
}

// CoexistenceFairness is Simulation 3A: for each hop count and variant
// pairing, two crossing flows at window 8; empty seeds means seed 1.
func CoexistenceFairness(hops []int, pairs [][2]Variant, d time.Duration, seeds []int64) (*Experiment, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var cells []Config
	for _, h := range hops {
		top, err := CrossTopology(h)
		if err != nil {
			return nil, err
		}
		fe := top.FlowEndpoints()
		for _, pair := range pairs {
			for _, seed := range seeds {
				cfg := chainCell(top, 0, 8, d, seed, pair[0])
				cfg.Flows = []Flow{
					{Src: fe[0][0], Dst: fe[0][1], Variant: pair[0]},
					{Src: fe[1][0], Dst: fe[1][1], Variant: pair[1]},
				}
				cells = append(cells, cfg)
			}
		}
	}
	return &Experiment{Name: "fig5.16-5.18", Cells: cells, reduce: func(res []*Result) Output {
		o := Output{CSV: []string{"hops,variant1,variant2,throughput1_bps,throughput2_bps,jain_index"}}
		var rows []FairnessRow
		var body [][]string
		for _, h := range hops {
			for _, pair := range pairs {
				r := FairnessRow{Hops: h, Variants: pair}
				for _, run := range res[:len(seeds)] {
					if run != nil {
						r.Seeds++
						r.ThroughputBps[0] += run.Flows[0].ThroughputBps
						r.ThroughputBps[1] += run.Flows[1].ThroughputBps
						r.JainIndex += run.JainIndex
					}
				}
				res = res[len(seeds):]
				if r.Seeds > 0 {
					n := float64(r.Seeds)
					r.ThroughputBps[0] /= n
					r.ThroughputBps[1] /= n
					r.JainIndex /= n
				}
				rows = append(rows, r)
				o.Text = append(o.Text, fmt.Sprintf("fig5.16-5.18 hops=%d %s+%s: flow1=%.0f flow2=%.0f jain=%.3f",
					h, pair[0], pair[1], r.ThroughputBps[0], r.ThroughputBps[1], r.JainIndex))
				o.CSV = append(o.CSV, fmt.Sprintf("%d,%s,%s,%.0f,%.0f,%.3f",
					h, pair[0], pair[1], r.ThroughputBps[0], r.ThroughputBps[1], r.JainIndex))
				body = append(body, []string{fmt.Sprint(h), fmt.Sprintf("%s + %s", pair[0], pair[1]),
					fmt.Sprintf("%.0f", r.ThroughputBps[0]), fmt.Sprintf("%.0f", r.ThroughputBps[1]), fmt.Sprintf("%.3f", r.JainIndex)})
			}
		}
		o.Rows, o.Markdown = rows, mdTable([]string{"hops", "pairing", "flow 1 (bit/s)", "flow 2 (bit/s)", "Jain"}, body)
		return o
	}}, nil
}

// DynamicsResult is one Simulation 3B run (Figures 5.19-5.22): three
// same-variant flows entering a 4-hop chain at 0, 10 and 20 seconds.
type DynamicsResult struct {
	Variant Variant
	// Series holds each flow's binned throughput (bit/s).
	Series [3][]Sample
}

// ThroughputDynamics is Simulation 3B for each variant. The flows
// enter at 0, 10 and 20 seconds as in the paper; for durations other
// than 30 s the stagger scales to thirds of the run.
func ThroughputDynamics(variants []Variant, d time.Duration, bin time.Duration, seed int64) (*Experiment, error) {
	top, err := ChainTopology(4)
	if err != nil {
		return nil, err
	}
	var cells []Config
	for _, v := range variants {
		cfg := chainCell(top, 4, 8, d, seed, v)
		cfg.ThroughputBin = bin
		cfg.Flows = append(cfg.Flows,
			Flow{Src: 0, Dst: 4, Variant: v, Start: d / 3},
			Flow{Src: 0, Dst: 4, Variant: v, Start: 2 * d / 3})
		cells = append(cells, cfg)
	}
	return &Experiment{Name: "fig5.19-5.22", Cells: cells, reduce: func(res []*Result) Output {
		o := Output{CSV: []string{"variant,flow,time_s,throughput_bps"}}
		var rows []DynamicsResult
		for i, v := range variants {
			dr := DynamicsResult{Variant: v}
			c := Chart{File: fmt.Sprintf("fig5.19-5.22_dynamics_%s.svg", v), Chart: plot.Chart{
				Title: fmt.Sprintf("Throughput Dynamics, three %s flows", v), XLabel: "time (s)", YLabel: "throughput (bit/s)",
			}}
			for f := range dr.Series {
				if res[i] != nil {
					dr.Series[f] = res[i].Flows[f].ThroughputSeries
				}
				line := fmt.Sprintf("fig5.19-5.22 variant=%-8s flow=%d kbps@1s:", v, f+1)
				for _, s := range dr.Series[f] {
					line += fmt.Sprintf(" %.0f", s.Value/1000)
					o.CSV = append(o.CSV, fmt.Sprintf("%s,%d,%.0f,%.0f", v, f+1, s.At.Seconds(), s.Value))
				}
				o.Text = append(o.Text, line)
				c.Series = append(c.Series, series(fmt.Sprintf("flow %d", f+1), dr.Series[f]))
			}
			rows = append(rows, dr)
			o.Charts = append(o.Charts, c)
		}
		o.Rows, o.Markdown = rows, fenced(o.Text)
		return o
	}}, nil
}

// table52 prints the DRAI action table (Table 5.2) as implemented. It
// runs nothing.
func table52() *Experiment {
	names := [...]string{1: "aggressive deceleration", "moderate deceleration", "stabilizing", "moderate acceleration", "aggressive acceleration"}
	return &Experiment{Name: "table5.2", reduce: func([]*Result) Output {
		var o Output
		for level := 5; level >= 1; level-- {
			o.Text = append(o.Text, fmt.Sprintf("table5.2 DRAI=%d (%s): cwnd %g -> %g", level, names[level], 8.0, core.ApplyDRAI(8, level)))
		}
		o.Markdown = fenced(o.Text)
		return o
	}}
}

// ArmRow is one labelled point of a family on the paper's 4-hop chain
// (Table 4.1, the ablations, related work, the extensions, Section
// 4.7): its first flow's means and its runs, nil where one failed.
type ArmRow struct {
	Label string
	FlowMeans
	Results []*Result
}

// mean averages f over the arm's completed runs.
func (a ArmRow) mean(f func(*Result) float64) float64 {
	var sum float64
	for _, r := range a.Results {
		if r != nil {
			sum += f(r)
		}
	}
	return sum / max(1, float64(a.Seeds))
}

// arm is one labelled point and its runs, one per seed.
type arm struct {
	label string
	cells []Config
}

// chain4 is the paper's 4-hop chain with one flow of v at window 8 for
// 30 s, edited by set.
func chain4(v Variant, seed int64, set func(*Config)) Config {
	top, _ := ChainTopology(4) // valid: 4 hops
	cfg := chainCell(top, 4, 8, 30*time.Second, seed, v)
	if set != nil {
		set(&cfg)
	}
	return cfg
}

// seedArm is an arm of v over seeds 1-3, edited by set.
func seedArm(label string, v Variant, set func(*Config)) arm {
	a := arm{label: label}
	for seed := int64(1); seed <= 3; seed++ {
		a.cells = append(a.cells, chain4(v, seed, set))
	}
	return a
}

// armFamily reduces each arm to an ArmRow and a text line: the name,
// the arm's label and line's suffix. The markdown block tabulates the
// suffixes' key=value fields under key, each row headed by its label;
// with key empty it is the fenced text.
func armFamily(name, key string, arms []arm, line func(ArmRow) string) *Experiment {
	var cells []Config
	for _, a := range arms {
		cells = append(cells, a.cells...)
	}
	return &Experiment{Name: name, Cells: cells, reduce: func(res []*Result) Output {
		var o Output
		var rows []ArmRow
		header := []string{key}
		var body [][]string
		for i, a := range arms {
			row := ArmRow{Label: a.label, FlowMeans: flowMeans(res[:len(a.cells)]), Results: res[:len(a.cells)]}
			res = res[len(a.cells):]
			suffix := line(row)
			o.Text = append(o.Text, name+" "+a.label+suffix)
			cols := []string{strings.Join(strings.Fields(a.label), " ")}
			for _, f := range strings.Fields(suffix) {
				k, v, _ := strings.Cut(f, "=")
				if i == 0 {
					header = append(header, k)
				}
				cols = append(cols, v)
			}
			rows, body = append(rows, row), append(body, cols)
		}
		o.Rows, o.Markdown = rows, mdTable(header, body)
		if key == "" {
			o.Markdown = fenced(o.Text)
		}
		return o
	}}
}

// table41 exercises the four Table 4.1 events on a lossy chain.
func table41() *Experiment {
	cfg := chain4(Muzha, 1, func(c *Config) { c.PacketErrorRate = 0.01 })
	return armFamily("table4.1", "", []arm{{"muzha with 1% random loss:", []Config{cfg}}}, func(a ArmRow) string {
		fr := a.mean(func(r *Result) float64 { return float64(r.Flows[0].FastRecoveries) })
		return fmt.Sprintf(" %.0f bit/s, %.0f fast-recoveries, %.0f timeouts, %.0f rexmit", a.ThroughputBps, fr, a.Timeouts, a.Retransmissions)
	})
}

// ablation compares design choices on one Muzha flow over the 4-hop
// chain, seed 1: one arm per edit, labelled by labels padded to width.
func ablation(name string, width int, timeouts bool, labels []string, edits ...func(*Config)) *Experiment {
	arms := make([]arm, len(labels))
	for i, l := range labels {
		arms[i] = arm{fmt.Sprintf("%-*s", width, l), []Config{chain4(Muzha, 1, edits[i])}}
	}
	return armFamily(name, "arm", arms, func(a ArmRow) string {
		s := fmt.Sprintf(" throughput=%.0f rexmit=%.0f", a.ThroughputBps, a.Retransmissions)
		if timeouts {
			s += fmt.Sprintf(" timeouts=%.0f", a.Timeouts)
		}
		return s
	})
}

// drai sets the DRAI policy.
func drai(p DRAIPolicy) func(*Config) { return func(c *Config) { c.DRAI = p } }

// ablations are the design probes DESIGN.md calls out.
func ablations() []*Experiment {
	var marks, losses []func(*Config)
	var markLabels, lossLabels []string
	for _, level := range []int{1, 2, 3} {
		markLabels = append(markLabels, fmt.Sprintf("level<=%d", level))
		marks = append(marks, func(c *Config) {
			c.DRAI.MarkLevel = level
			c.ResidualLossRate = 0.01
		})
	}
	for _, per := range []float64{0, 0.01, 0.02} {
		for _, disc := range []bool{true, false} {
			lossLabels = append(lossLabels, fmt.Sprintf("residual=%.2f enabled=%-5v", per, disc))
			losses = append(losses, func(c *Config) {
				c.ResidualLossRate = per
				c.MuzhaLossDiscrimination = disc
			})
		}
	}
	return []*Experiment{
		ablation("ablation.drai-levels", 8, true, []string{"5-level", "3-level", "binary"},
			drai(DefaultDRAIPolicy()), drai(ThreeLevelDRAIPolicy()), drai(BinaryDRAIPolicy(0.04))),
		ablation("ablation.channel-gate", 13, true, []string{"queue-only", "channel-gated"},
			drai(DefaultDRAIPolicy()), drai(ChannelAwareDRAIPolicy())),
		ablation("ablation.delay-drai", 11, true, []string{"queue-only", "delay-aware"},
			drai(DefaultDRAIPolicy()), drai(DelayAwareDRAIPolicy())),
		ablation("ablation.mark-level", 0, true, markLabels, marks...),
		ablation("ablation.queue", 8, false, []string{"droptail", "red"}, nil, func(c *Config) { c.UseRED = true }),
		ablation("ablation.rtscts", 8, false, []string{"rts-cts", "no-rts"}, nil, func(c *Config) { c.DisableRTSCTS = true }),
		ablation("ablation.discrimination", 0, true, lossLabels, losses...),
		ablation("ablation.routing", 5, true, []string{"aodv", "dsr"}, nil, func(c *Config) { c.UseDSR = true }),
	}
}

// relatedWork runs the Chapter 3 related-work senders head to head with
// Muzha and NewReno: the end-to-end estimators (Veno, Westwood), the
// router-assisted baselines (Jersey's ABE+CW, ECN-reactive NewReno) and
// the paper's contribution.
func relatedWork() *Experiment {
	var arms []arm
	for _, v := range []Variant{NewReno, Veno, Westwood, Jersey, ECNNewReno, Muzha} {
		arms = append(arms, seedArm(fmt.Sprintf("%-12s", v), v, nil))
	}
	return armFamily("relatedwork", "sender", arms, func(a ArmRow) string {
		return fmt.Sprintf(" throughput=%.0f rexmit=%.1f", a.ThroughputBps, a.Retransmissions)
	})
}

// backgroundTraffic measures how each variant degrades when an
// unreactive CBR stream crosses its chain.
func backgroundTraffic() *Experiment {
	var arms []arm
	for _, v := range []Variant{NewReno, Vegas, Muzha} {
		for _, rate := range []float64{0, 100_000, 200_000} {
			arms = append(arms, arm{fmt.Sprintf("%-8s cbr=%.0fkbps", v, rate/1000), []Config{chain4(v, 1, func(c *Config) {
				if rate > 0 {
					c.Background = []BackgroundFlow{{Src: 4, Dst: 0, RateBps: rate}}
				}
			})}})
		}
	}
	return armFamily("extension.background", "sender and CBR rate", arms, func(a ArmRow) string {
		ratio := a.mean(func(r *Result) float64 {
			if len(r.Background) == 0 {
				return 0
			}
			return r.Background[0].DeliveryRatio
		})
		return fmt.Sprintf(" tcp=%.0f cbr_delivery=%.2f", a.ThroughputBps, ratio)
	})
}

// mobility runs each variant with node 2 of a 180 m-spaced 4-hop chain
// roaming an 800x200 field for 60 s: the spacing leaves roaming slack,
// and the field keeps the relay mostly reachable with intermittent
// breaks near the corners.
func mobility() *Experiment {
	top, _ := ChainTopologySpaced(4, 180) // valid: 4 hops, 180 m apart
	var arms []arm
	for _, v := range []Variant{NewReno, Vegas, Muzha} {
		arms = append(arms, seedArm(fmt.Sprintf("%-8s", v), v, func(c *Config) {
			c.Topology = top
			c.Duration = 60 * time.Second
			c.Mobility = &Mobility{Width: 800, Height: 200, MinSpeed: 2, MaxSpeed: 10, Pause: 5 * time.Second, MobileNodes: []int{2}}
		}))
	}
	return armFamily("extension.mobility", "sender", arms, func(a ArmRow) string {
		disc := a.mean(func(r *Result) float64 {
			var n float64
			for _, node := range r.Nodes {
				n += float64(node.Discoveries)
			}
			return n
		})
		return fmt.Sprintf(" throughput=%.0f discoveries=%.1f", a.ThroughputBps, disc)
	})
}

// The arms of lossDiscrimination.
const (
	lossMuzha   = "muzha-discriminating"
	lossBlind   = "muzha-blind         "
	lossNewReno = "newreno             "
)

// lossDiscrimination is Section 4.7's claim: at 2% residual
// (post-ARQ) loss on the 4-hop chain, seeds 1-3, Muzha with and
// without its marked/unmarked dup-ACK discrimination, against NewReno.
func lossDiscrimination() *Experiment {
	lossy := func(disc bool) func(*Config) {
		return func(c *Config) {
			c.ResidualLossRate = 0.02
			c.MuzhaLossDiscrimination = disc
		}
	}
	arms := []arm{seedArm(lossMuzha, Muzha, lossy(true)), seedArm(lossBlind, Muzha, lossy(false)), seedArm(lossNewReno, NewReno, lossy(true))}
	return armFamily("sec4.7", "sender", arms, func(a ArmRow) string {
		return fmt.Sprintf(" throughput=%.0f rexmit=%.1f timeouts=%.1f", a.ThroughputBps, a.Retransmissions, a.Timeouts)
	})
}

// mdTable renders a markdown table.
func mdTable(header []string, rows [][]string) string {
	var b strings.Builder
	for i, r := range append([][]string{header}, rows...) {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
		if i == 0 {
			b.WriteString(strings.Repeat("|---", len(header)) + "|\n")
		}
	}
	return b.String()
}

// fenced renders lines as a fenced code block.
func fenced(lines []string) string {
	return "```\n" + strings.Join(lines, "\n") + "\n```\n"
}
