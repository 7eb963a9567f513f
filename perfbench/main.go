// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed in a closed loop, checks every output,
// and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload paper-chains --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the timed phase twice, untraced and then traced, and prints the
// per-layer metrics, a span table with self times and the tracing
// overhead. README.md in this directory documents the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workDir: filepath.Join(".bench_build", "perfbench"),
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	host, _ := json.Marshal(rep.host)
	fmt.Fprintf(stdout, "host %s\n", host)
	metrics := rep.endToEnd
	if o.trace {
		metrics = rep.perLayer
		fmt.Fprint(stdout, rep.table)
		path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := rep.tracer.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, metrics.byName()})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
