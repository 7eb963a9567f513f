package chaoscov

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"muzha"
	"muzha/internal/scenario"
)

// Options configures a coverage-guided chaos loop.
type Options struct {
	// Seed drives scenario generation and mutation choices; the same
	// seed (with the same corpus starting state) replays the same loop.
	Seed int64
	// Runs is the spec budget; each spec simulates twice for the
	// determinism replay. Shrinking spends additional runs outside this
	// budget.
	Runs int
	// Duration is the simulated time per scenario, at least 1s.
	Duration time.Duration
	// CorpusPath persists the corpus as JSONL; "" keeps it in memory.
	// An existing corpus is resumed: its accumulated coverage seeds the
	// loop and its frontier seeds mutation.
	CorpusPath string
	// ReproDir receives a shrunk reproducer, repro-<class>.json, for
	// the first failure of each class. "" skips both shrinking and
	// writing: a minimized spec is only useful once it is written.
	ReproDir string
	// Guards bounds runs whose spec has no guards block. The caller
	// sets the bounds; the zero value runs unguarded, so a livelocked
	// mutant would hang the loop.
	Guards muzha.RunGuards
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Report summarizes a finished loop.
type Report struct {
	// Runs is the number of budget specs executed.
	Runs int `json:"runs"`
	// Coverage lists the distinct Sometimes assertions reached across
	// the whole corpus (including resumed state), sorted.
	Coverage []string `json:"coverage"`
	// Classes lists the distinct failure classes seen, sorted.
	Classes []string `json:"classes,omitempty"`
	// Failures counts budget runs that failed.
	Failures int `json:"failures"`
	// CorpusEntries is the corpus size after the loop.
	CorpusEntries int `json:"corpus_entries"`
	// Repros lists the reproducer files written.
	Repros []string `json:"repros,omitempty"`
	// History records the cumulative Sometimes-coverage count after
	// each budget run — monotonically non-decreasing by construction;
	// the CI smoke job asserts it.
	History []int `json:"history"`
}

// every freshEvery-th run starts from a fresh random spec instead of
// a corpus mutation, so the loop keeps exploring after the frontier
// goes stale.
const freshEvery = 5

// Loop runs the coverage-guided chaos loop: generate or mutate a
// scenario spec, run it twice, record its Sometimes-assertion and
// failure-class coverage in the corpus, and steer the next mutation —
// preferring parents that recently expanded coverage and directing
// mutations toward registered assertions nothing has reached yet.
// A spec whose two runs disagree fails as ClassNonDeterministic.
// With a ReproDir, failures are shrunk to minimal reproducers as they
// appear.
//
// The loop is sequential by design (each run's coverage steers the
// next) and deterministic for a given seed and starting corpus.
func Loop(opt Options) (Report, error) {
	if opt.Duration < time.Second {
		return Report{}, fmt.Errorf("chaoscov: duration %v: want at least 1s", opt.Duration)
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	corpus, err := OpenCorpus(opt.CorpusPath)
	if err != nil {
		return Report{}, err
	}
	defer corpus.Close()
	if corpus.Len() > 0 {
		logf("resumed corpus: %d entries, %d assertions covered",
			corpus.Len(), len(corpus.SometimesCoverage()))
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	var rep Report
	durMs := opt.Duration.Milliseconds()

	for i := 0; i < opt.Runs; i++ {
		spec, parent, how := nextSpec(rng, corpus, i, durMs)
		if spec.Validate() != nil {
			// A mutation can produce an invalid spec (e.g. a flow endpoint
			// beyond a changed topology); fall back to exploration rather
			// than burning the budget slot.
			spec, parent, how = freshSpec(rng, durMs), -1, "fresh(fallback)"
		}

		res, class, runErr := runTwice(spec, opt.Guards)
		rep.Runs++
		var coverage []string
		if res != nil {
			coverage = res.SometimesCoverage()
		}

		entry, added, addErr := corpus.Add(spec, parent, coverage, class)
		if addErr != nil {
			return rep, addErr
		}
		rep.History = append(rep.History, len(corpus.SometimesCoverage()))

		switch {
		case added && len(entry.New) > 0:
			logf("run %d [%s]: NEW coverage %v (%s)", i, how, entry.New, spec.Summary())
		case added:
			logf("run %d [%s]: new signature, no new elements", i, how)
		}

		if class != "" {
			rep.Failures++
			logf("run %d [%s]: FAILED class=%s %s", i, how, class, failureCause(res, runErr))
			if opt.ReproDir != "" && added && isNew(entry, classElement(class)) {
				path, serr := shrinkAndWrite(spec, class, opt, logf)
				if serr != nil {
					logf("shrink: %v", serr)
				} else {
					rep.Repros = append(rep.Repros, path)
				}
			}
		}
	}

	rep.Coverage = corpus.SometimesCoverage()
	rep.Classes = corpus.Classes()
	rep.CorpusEntries = corpus.Len()
	if err := corpus.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// nextSpec picks the i-th run's scenario: periodically a fresh random
// spec; otherwise a mutation of a frontier parent (latest-biased —
// recent coverage-expanders are the most promising neighborhoods),
// directed toward an unreached registered target when one exists. It
// returns the spec, its parent corpus ID (-1 when fresh), and a label
// for logging.
func nextSpec(rng *rand.Rand, corpus *Corpus, i int, durMs int64) (scenario.Spec, int, string) {
	frontier := corpus.Frontier()
	if i%freshEvery == 0 || len(frontier) == 0 {
		return freshSpec(rng, durMs), -1, "fresh"
	}

	// Latest-biased parent selection over the last few frontier entries.
	window := frontier
	if len(window) > 8 {
		window = window[len(window)-8:]
	}
	id := window[rng.Intn(len(window))]
	parent, err := scenario.Parse(corpus.Entries()[id].Spec)
	if err != nil {
		return freshSpec(rng, durMs), -1, "fresh"
	}

	// Directed mutation: rotate through registered targets the corpus
	// has never reached.
	var unreached []string
	for _, t := range Targets() {
		if !corpus.Seen(t) {
			unreached = append(unreached, t)
		}
	}
	if len(unreached) > 0 {
		target := unreached[i%len(unreached)]
		return mutateToward(rng, parent, target), id, fmt.Sprintf("directed:%s<-%d", target, id)
	}
	return mutate(rng, parent), id, fmt.Sprintf("mutate<-%d", id)
}

// runSpec executes one spec; tests swap it to inject divergence.
var runSpec = RunSpec

// runTwice executes spec twice and returns the first run's outcome.
// When the replay's failure class differs, or the two runs completed
// with Results that are not reflect.DeepEqual, the outcome is
// ClassNonDeterministic wrapping muzha.ErrNonDeterministic: the
// simulator broke its same-Config-same-Result guarantee. A wall-clock
// deadline abort depends on host load, not on the model, so it is
// reported as such instead of as a divergence.
func runTwice(spec scenario.Spec, guards muzha.RunGuards) (*muzha.Result, string, error) {
	res, class, err := runSpec(spec, guards)
	if class == muzha.ClassDeadline {
		return res, class, err
	}
	again, againClass, againErr := runSpec(spec, guards)
	switch {
	case againClass == muzha.ClassDeadline:
		return again, againClass, againErr
	case againClass != class:
		return res, muzha.ClassNonDeterministic, fmt.Errorf("chaoscov: %s: %w: failure class %q, then %q on replay",
			spec.Summary(), muzha.ErrNonDeterministic, class, againClass)
	case err == nil && !reflect.DeepEqual(res, again):
		return res, muzha.ClassNonDeterministic, fmt.Errorf("chaoscov: %s: %w: results differ between identical runs",
			spec.Summary(), muzha.ErrNonDeterministic)
	}
	return res, class, err
}

// failureCause says why a run failed: the violated Always assertions
// of an invariant failure, otherwise the run's error.
func failureCause(res *muzha.Result, err error) string {
	if err != nil || res == nil {
		return fmt.Sprintf("err=%v", err)
	}
	var violated []string
	for _, iv := range res.Invariants {
		if iv.Violations > 0 {
			violated = append(violated, fmt.Sprintf("%s(x%d)", iv.Name, iv.Violations))
		}
	}
	return "violated=" + strings.Join(violated, ",")
}

func isNew(e Entry, element string) bool {
	for _, el := range e.New {
		if el == element {
			return true
		}
	}
	return false
}

// shrinkAndWrite minimizes one failure and writes the self-verifying
// reproducer as ReproDir/repro-<class>.json (indented JSON — the file
// is for humans and bug reports; Parse accepts it unchanged).
func shrinkAndWrite(spec scenario.Spec, class string, opt Options, logf func(string, ...any)) (string, error) {
	sr := Shrink(spec, class, opt.Guards, logf)
	logf("shrink: class=%s steps=%d runs=%d final=%s", class, sr.Steps, sr.Runs, sr.Spec.Summary())
	if err := os.MkdirAll(opt.ReproDir, 0o755); err != nil {
		return "", fmt.Errorf("chaoscov: repro dir: %w", err)
	}
	b, err := json.MarshalIndent(sr.Spec, "", "  ")
	if err != nil {
		return "", fmt.Errorf("chaoscov: encode repro: %w", err)
	}
	path := filepath.Join(opt.ReproDir, "repro-"+class+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("chaoscov: write repro: %w", err)
	}
	logf("shrink: wrote %s", path)
	return path, nil
}
