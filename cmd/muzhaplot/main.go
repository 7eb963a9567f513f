// Command muzhaplot regenerates the paper's figures as SVG files.
//
// Usage:
//
//	muzhaplot -out figures              # all figure families
//	muzhaplot -out figures -exp cwnd    # only Figures 5.2-5.7
//
// Figures written:
//
//	fig5.2-5.7_cwnd_<h>hop.svg          congestion window traces
//	fig5.8-5.10_throughput_w<w>.svg     throughput vs hops
//	fig5.11-5.13_retransmissions_w<w>.svg
//	fig5.19-5.22_dynamics_<variant>.svg throughput dynamics
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"muzha"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "muzhaplot:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("muzhaplot", flag.ContinueOnError)
	var (
		out  = fs.String("out", "figures", "output directory for SVG files")
		exp  = fs.String("exp", "all", "figure family: cwnd | throughput | dynamics | all")
		seed = fs.Int64("seed", 1, "base random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	variants := []muzha.Variant{muzha.NewReno, muzha.SACK, muzha.Vegas, muzha.Muzha}
	sweep := muzha.DefaultChainSweep()
	sweep.Variants = variants
	sweep.Seeds = []int64{*seed, *seed + 1, *seed + 2}
	var exps []*muzha.Experiment
	var errs []error
	add := func(family string) func(*muzha.Experiment, error) {
		return func(e *muzha.Experiment, err error) {
			if *exp == "all" || *exp == family {
				exps, errs = append(exps, e), append(errs, err)
			}
		}
	}
	add("cwnd")(muzha.CwndTraces([]int{4, 8, 16}, variants, 10*time.Second, *seed))
	add("throughput")(muzha.ThroughputVsHops(sweep))
	add("throughput")(muzha.RetransmissionsVsHops(sweep))
	add("dynamics")(muzha.ThroughputDynamics(variants, 30*time.Second, time.Second, *seed))
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if exps == nil {
		return fmt.Errorf("unknown figure family %q", *exp)
	}
	outs, err := muzha.RunExperiments(exps, muzha.SweepOptions{})
	if err != nil {
		return err
	}
	for _, o := range outs {
		for _, c := range o.Charts {
			svg, err := c.SVG()
			if err != nil {
				return fmt.Errorf("%s: %w", c.File, err)
			}
			path := filepath.Join(*out, c.File)
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	return nil
}
