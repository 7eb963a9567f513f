// Command muzhareport reruns the paper's headline experiments and emits
// a markdown report that checks each reproduced claim, pass/fail. It is
// the self-auditing companion to EXPERIMENTS.md. It exits 1 when any
// claim fails.
//
//	muzhareport            # full 30 s runs, 3 seeds (seconds)
//	muzhareport -quick     # reduced runs for smoke-testing; too short
//	                       # for every claim to hold
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"muzha"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "muzhareport:", err)
		os.Exit(1)
	}
}

// errClaimsFailed is returned, after the whole report is written, when
// at least one claim reads FAIL.
var errClaimsFailed = errors.New("paper claims failed")

// reporter is the report's output; it tallies the claims checked.
type reporter struct {
	io.Writer
	claims, failed int
}

type params struct {
	duration time.Duration
	fairDur  time.Duration
	seeds    []int64
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("muzhareport", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced durations and one seed (smoke test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := params{duration: 30 * time.Second, fairDur: 50 * time.Second, seeds: []int64{1, 2, 3}}
	if *quick {
		p = params{duration: 5 * time.Second, fairDur: 5 * time.Second, seeds: []int64{1}}
	}

	out := &reporter{Writer: w}
	fmt.Fprintln(out, "# TCP Muzha reproduction report")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "Runs: %v (fairness %v), seeds %v.\n\n", p.duration, p.fairDur, p.seeds)

	if err := reportThroughput(out, p); err != nil {
		return err
	}
	if err := reportFairness(out, p); err != nil {
		return err
	}
	if err := reportRandomLoss(out, p); err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("%w: %d of %d", errClaimsFailed, out.failed, out.claims)
	}
	return nil
}

func check(out *reporter, ok bool, claim string) {
	mark := "PASS"
	out.claims++
	if !ok {
		mark = "FAIL"
		out.failed++
	}
	fmt.Fprintf(out, "- [%s] %s\n", mark, claim)
}

func reportThroughput(out *reporter, p params) error {
	rows, err := muzha.ThroughputVsHops(muzha.ChainSweepConfig{
		Windows:  []int{8},
		Hops:     []int{4, 8, 16},
		Variants: []muzha.Variant{muzha.NewReno, muzha.SACK, muzha.Vegas, muzha.Muzha},
		Duration: p.duration,
		Seeds:    p.seeds,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "## Simulation 2: throughput and retransmissions (window_=8)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| hops | variant | throughput (bit/s) | retransmissions |")
	fmt.Fprintln(out, "|---|---|---|---|")
	get := func(h int, v muzha.Variant) muzha.ChainRow {
		for _, r := range rows {
			if r.Hops == h && r.Variant == v {
				return r
			}
		}
		return muzha.ChainRow{}
	}
	for _, r := range rows {
		fmt.Fprintf(out, "| %d | %s | %.0f | %.1f |\n", r.Hops, r.Variant, r.ThroughputBps, r.Retransmissions)
	}
	fmt.Fprintln(out)

	m4, n4 := get(4, muzha.Muzha), get(4, muzha.NewReno)
	m8, n8 := get(8, muzha.Muzha), get(8, muzha.NewReno)
	v4, v16 := get(4, muzha.Vegas), get(16, muzha.Vegas)
	n16 := get(16, muzha.NewReno)
	check(out, m4.ThroughputBps > n4.ThroughputBps,
		"Muzha outperforms NewReno at 4 hops (paper: +5-10%)")
	check(out, m8.ThroughputBps > n8.ThroughputBps,
		"Muzha outperforms NewReno at 8 hops")
	check(out, m4.Retransmissions < n4.Retransmissions,
		"Muzha retransmits less than NewReno at 4 hops")
	check(out, v4.ThroughputBps >= m4.ThroughputBps*0.95,
		"Vegas is competitive on short chains (paper: best below 8 hops)")
	check(out, v16.ThroughputBps < n16.ThroughputBps*1.05,
		"Vegas loses its edge on long chains")
	fmt.Fprintln(out)
	return nil
}

func reportFairness(out *reporter, p params) error {
	pairs := [][2]muzha.Variant{{muzha.NewReno, muzha.Vegas}, {muzha.NewReno, muzha.Muzha}}
	rows, err := muzha.CoexistenceFairness([]int{6}, pairs, p.fairDur, p.seeds)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "## Simulation 3A: coexistence fairness (6-hop cross)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| pairing | flow 1 (bit/s) | flow 2 (bit/s) | Jain index |")
	fmt.Fprintln(out, "|---|---|---|---|")
	var jainVegas, jainMuzha float64
	for _, r := range rows {
		fmt.Fprintf(out, "| %s + %s | %.0f | %.0f | %.3f |\n",
			r.Variants[0], r.Variants[1], r.ThroughputBps[0], r.ThroughputBps[1], r.JainIndex)
		switch r.Variants[1] {
		case muzha.Vegas:
			jainVegas = r.JainIndex
		case muzha.Muzha:
			jainMuzha = r.JainIndex
		}
	}
	fmt.Fprintln(out)
	check(out, jainMuzha > jainVegas,
		"NewReno+Muzha shares more fairly than NewReno+Vegas (paper: Muzha achieves fair sharing)")
	fmt.Fprintln(out)
	return nil
}

func reportRandomLoss(out *reporter, p params) error {
	fmt.Fprintln(out, "## Section 4.7: random-loss discrimination (4-hop chain, 2% residual loss)")
	fmt.Fprintln(out)
	top, err := muzha.ChainTopology(4)
	if err != nil {
		return err
	}
	measure := func(v muzha.Variant, discriminate bool) (float64, error) {
		var thr float64
		for _, seed := range p.seeds {
			cfg := muzha.DefaultConfig()
			cfg.Topology = top
			cfg.Duration = p.duration
			cfg.Window = 8
			cfg.Seed = seed
			cfg.ResidualLossRate = 0.02
			cfg.MuzhaLossDiscrimination = discriminate
			cfg.Flows = []muzha.Flow{{Src: 0, Dst: 4, Variant: v}}
			res, err := muzha.Run(cfg)
			if err != nil {
				return 0, err
			}
			thr += res.Flows[0].ThroughputBps / float64(len(p.seeds))
		}
		return thr, nil
	}
	muzhaOn, err := measure(muzha.Muzha, true)
	if err != nil {
		return err
	}
	muzhaOff, err := measure(muzha.Muzha, false)
	if err != nil {
		return err
	}
	reno, err := measure(muzha.NewReno, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| sender | throughput (bit/s) |")
	fmt.Fprintln(out, "|---|---|")
	fmt.Fprintf(out, "| muzha (discrimination on) | %.0f |\n", muzhaOn)
	fmt.Fprintf(out, "| muzha (discrimination off) | %.0f |\n", muzhaOff)
	fmt.Fprintf(out, "| newreno | %.0f |\n", reno)
	fmt.Fprintln(out)
	check(out, muzhaOn > reno,
		"Muzha beats NewReno under random loss (paper: avoids needless window reduction)")
	check(out, muzhaOn >= muzhaOff,
		"Discrimination does not hurt under random loss")
	return nil
}
