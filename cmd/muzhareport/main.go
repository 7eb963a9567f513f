// Command muzhareport reruns every result family of EXPERIMENTS.md from
// the experiment registry, each distinct run once, and writes a
// markdown report: each paper claim check with its outcome, each
// family's table, and every family's rows as text. It then compares
// EXPERIMENTS.md's generated blocks with the rendering. It exits 1 when
// a check's outcome differs from its expectation (a failed claim, or a
// known divergence that starts to hold), when a run fails, or when a
// generated block differs.
//
//	muzhareport            # report, and check EXPERIMENTS.md
//	muzhareport -update    # report, and rewrite EXPERIMENTS.md's blocks
//
// Run it from the repository root, where EXPERIMENTS.md is.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"muzha"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, "EXPERIMENTS.md"); err != nil {
		fmt.Fprintln(os.Stderr, "muzhareport:", err)
		os.Exit(1)
	}
}

// errClaimsFailed is returned, after the whole report is written, when
// a claim check's outcome differs from its expectation.
var errClaimsFailed = errors.New("paper claims failed")

func run(args []string, w io.Writer, doc string) error {
	fs := flag.NewFlagSet("muzhareport", flag.ContinueOnError)
	update := fs.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks instead of checking them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	outs, runErr := muzha.RunExperiments(muzha.Registry(), muzha.SweepOptions{})
	if outs == nil {
		return runErr
	}

	blocks, failed, total := report(w, outs)
	var claimErr error
	if failed > 0 {
		claimErr = fmt.Errorf("%w: %d of %d", errClaimsFailed, failed, total)
	}
	return errors.Join(runErr, claimErr, syncDoc(doc, blocks, *update))
}

// report writes the markdown report of outs to w: every claim check,
// by claim number, with its outcome, then each family's block, then
// every family's text rows. It returns EXPERIMENTS.md's generated
// blocks, named, and how many of the total checks came out other than
// expected.
func report(w io.Writer, outs []muzha.Output) (blocks [][2]string, failed, total int) {
	var verdicts []muzha.Verdict
	for _, o := range outs {
		verdicts = append(verdicts, o.Claims...)
	}
	// By paper claim number; the families list them in document order.
	slices.SortStableFunc(verdicts, func(a, b muzha.Verdict) int { return cmp.Compare(a.ID[0], b.ID[0]) })
	fmt.Fprint(w, "# TCP Muzha reproduction report\n\n## Claims\n\n")
	table := "| check | claim | expected | measured |\n|---|---|---|---|\n"
	for _, v := range verdicts {
		mark, expect := "PASS", string(v.Expect)
		if !v.OK() {
			mark = "FAIL"
			failed++
		}
		if v.Reason != "" {
			expect += ": " + v.Reason
		}
		fmt.Fprintf(w, "- [%s] %s %s (expected %s): %s — %s\n", mark, v.ID, v.Got, v.Expect, v.Text, v.Detail)
		if v.Err != nil {
			fmt.Fprintf(w, "  error: %v\n", v.Err)
		}
		table += fmt.Sprintf("| %s | %s | %s | %s |\n", v.ID, v.Text, expect, v.Detail)
	}
	blocks = [][2]string{{"claims", table}}
	var text []string
	for _, o := range outs {
		fmt.Fprintf(w, "\n## %s\n\n%s", o.Name, o.Markdown)
		blocks = append(blocks, [2]string{o.Name, o.Markdown})
		text = append(text, o.Text...)
	}
	fmt.Fprintf(w, "\n## Rows\n\n```\n%s\n```\n", strings.Join(text, "\n"))
	return blocks, failed, len(verdicts)
}

// syncDoc checks each named block of the document at path against its
// rendering, or with update set rewrites the ones that differ. A block
// is the text between a "<!-- begin NAME -->" line and the next
// "<!-- end NAME -->".
func syncDoc(path string, blocks [][2]string, update bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc := string(raw)
	var drift []string
	for _, b := range blocks {
		begin, end := "<!-- begin "+b[0]+" -->\n", "<!-- end "+b[0]+" -->"
		i := strings.Index(doc, begin)
		j := strings.Index(doc[max(i, 0):], end) + max(i, 0)
		if i < 0 || j < i {
			return fmt.Errorf("%s: no %s block", path, b[0])
		}
		if i += len(begin); doc[i:j] != b[1] {
			drift = append(drift, b[0])
			doc = doc[:i] + b[1] + doc[j:]
		}
	}
	switch {
	case len(drift) == 0:
		return nil
	case update:
		return os.WriteFile(path, []byte(doc), 0o644)
	}
	return fmt.Errorf("%s differs from the registry's rendering in %s; rerun with -update", path, strings.Join(drift, ", "))
}
