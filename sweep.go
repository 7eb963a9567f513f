package muzha

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"muzha/internal/harness"
)

// SweepOptions supervises a multi-run sweep: worker parallelism, a
// resumable journal, and per-run guards. The zero value reproduces the
// historical serial, unguarded, unjournaled behaviour.
type SweepOptions struct {
	// Parallel is the worker count; <= 1 runs serially, and any value
	// yields bit-for-bit identical per-run Results — each run is
	// single-threaded, workers only change wall-clock time.
	Parallel int
	// Journal is a JSONL file recording each run as it completes. A
	// restarted sweep pointed at the same journal skips the recorded
	// runs and merges their results, so a killed sweep loses only its
	// in-flight work: a line torn by the kill is skipped on resume and
	// never swallows the records appended after it (see
	// internal/jsonl). Empty disables journaling.
	Journal string
	// Guards bounds every run in the sweep (applied only to runs whose
	// Config carries no guards of its own).
	Guards RunGuards
	// Workers is the Config.Workers width given to every run whose
	// Config does not set its own. Independent of Parallel, which
	// schedules whole runs; neither changes a Result.
	Workers int
}

// SweepError summarizes a supervised sweep's failures. The sweep always
// finishes — failed runs are classified, not fatal — and drivers return
// the completed rows alongside a *SweepError describing what was lost.
// errors.Is against ErrPanic, ErrLivelock, ErrEventBudget, ErrDeadline,
// ErrNonDeterministic or ErrInvariant matches the most severe class
// present (and the first failure's own chain).
type SweepError struct {
	// Total and Failed count runs; Resumed counts journal hits.
	Total, Failed, Resumed int
	// Counts maps failure-class name (see Classify) to run count.
	Counts map[string]int
	// First is the first failed run's error, for context.
	First error
	// worst is the most severe class's sentinel.
	worst error
}

// Error renders e.g. "sweep: 3 of 12 runs failed [panic:1 livelock:2]; first: ...".
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d of %d runs failed [", e.Failed, e.Total)
	classes := []string{ClassPanic, ClassLivelock, ClassEventBudget, ClassDeadline,
		ClassNonDeterministic, ClassInvariant, ClassError}
	first := true
	for _, c := range classes {
		if n := e.Counts[c]; n > 0 {
			if !first {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", c, n)
			first = false
		}
	}
	b.WriteByte(']')
	if e.First != nil {
		fmt.Fprintf(&b, "; first: %v", e.First)
	}
	return b.String()
}

// Unwrap exposes the worst class's sentinel and the first failure.
func (e *SweepError) Unwrap() []error {
	var out []error
	if e.worst != nil {
		out = append(out, e.worst)
	}
	if e.First != nil {
		out = append(out, e.First)
	}
	return out
}

// runUnit is one Run(cfg) job inside a sweep. Key must be stable across
// restarts — it identifies the run in the journal.
type runUnit struct {
	Key string
	Cfg Config
}

// runOutcome is one unit's terminal state.
type runOutcome struct {
	Result  *Result
	Err     error
	Class   string
	Resumed bool
}

// runPool executes the units on the supervised worker pool: panics are
// contained, failures replayed once to classify deterministic versus
// divergent, outcomes journaled and resumed. With verify set, each run
// executes twice and any Result divergence is ErrNonDeterministic. The
// returned error is only for harness plumbing (an unopenable or
// unwritable journal); per-run failures live in the outcomes.
func runPool(units []runUnit, opt SweepOptions, verify bool) ([]runOutcome, error) {
	var journal *harness.Journal
	if opt.Journal != "" {
		j, err := harness.OpenJournal(opt.Journal)
		if err != nil {
			return nil, err
		}
		journal = j
	}

	jobs := make([]harness.Job, len(units))
	for i, u := range units {
		cfg := u.Cfg
		if !cfg.Guards.enabled() {
			cfg.Guards = opt.Guards
		}
		if cfg.Workers == 0 {
			cfg.Workers = opt.Workers
		}
		jobs[i] = harness.Job{Key: u.Key, Fn: func() (any, error) {
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			if verify {
				again, err := Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("muzha: verify replay seed %d: %w", cfg.Seed, err)
				}
				if !reflect.DeepEqual(res, again) {
					return nil, fmt.Errorf("muzha: seed %d: %w: results differ between identical runs",
						cfg.Seed, harness.ErrNonDeterministic)
				}
			}
			return res, nil
		}}
	}

	workers := opt.Parallel
	if workers <= 0 {
		workers = 1
	}
	outs, _ := harness.Execute(jobs, harness.Options{
		Workers: workers,
		Journal: journal,
		Replay:  true,
	})

	result := make([]runOutcome, len(outs))
	for i, o := range outs {
		ro := runOutcome{Err: o.Err, Class: string(o.Class), Resumed: o.Resumed}
		switch {
		case o.Err != nil:
		case o.Resumed:
			var r Result
			if derr := json.Unmarshal(o.Raw, &r); derr != nil {
				ro.Err = fmt.Errorf("muzha: journal entry %q: %w", o.Key, derr)
				ro.Class = ClassError
			} else {
				ro.Result = &r
			}
		default:
			ro.Result = o.Value.(*Result)
		}
		result[i] = ro
	}

	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			return result, cerr
		}
	}
	return result, nil
}

// sweepError folds the outcomes' failures into a *SweepError, or nil
// when every run succeeded. A non-nil Result with Always-invariant
// violations counts as a ClassInvariant failure — the run completed,
// but its model state is untrustworthy.
func sweepError(outs []runOutcome) error {
	se := &SweepError{Total: len(outs), Counts: make(map[string]int)}
	classCounts := make(map[harness.Class]int)
	for _, o := range outs {
		if o.Resumed {
			se.Resumed++
		}
		cls := o.Class
		var oerr error
		switch {
		case o.Err != nil:
			oerr = o.Err
		case o.Result != nil && o.Result.InvariantViolations > 0:
			cls = ClassInvariant
			oerr = fmt.Errorf("muzha: %w: %d violations", ErrInvariant, o.Result.InvariantViolations)
		default:
			continue
		}
		se.Failed++
		se.Counts[cls]++
		classCounts[harness.Class(cls)]++
		if se.First == nil {
			se.First = oerr
		}
	}
	if se.Failed == 0 {
		return nil
	}
	if worst := harness.WorstOf(classCounts); worst != harness.ClassError {
		se.worst = harness.Sentinel(worst)
	}
	return se
}

// sweepOpt unpacks the optional trailing SweepOptions of the experiment
// drivers.
func sweepOpt(opts []SweepOptions) SweepOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return SweepOptions{}
}
