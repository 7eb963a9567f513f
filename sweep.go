package muzha

import (
	"encoding/json"
	"fmt"
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
	// Config does not set its own; 0 leaves it at one worker per CPU
	// and 1 simulates each run's domains one at a time. Independent of
	// Parallel, which schedules whole runs; neither changes a Result.
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
	first := true
	for _, c := range harness.WorstFirst() {
		if n := e.Counts[string(c)]; n > 0 {
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

// runOutcome is one run's terminal state.
type runOutcome struct {
	Result  *Result
	Err     error
	Class   string
	Resumed bool
}

// runPool executes one Run per config on the supervised worker pool:
// panics are contained, failures replayed once to classify
// deterministic versus divergent, outcomes journaled and resumed. Each
// run's journal key is its Config.Hash — the muzhad cache key — so a
// resumed sweep reuses exactly the runs whose scenario is unchanged.
// The returned error is only for harness plumbing (an unhashable
// config, an unopenable or unwritable journal); per-run failures live
// in the outcomes.
func runPool(cfgs []Config, opt SweepOptions) ([]runOutcome, error) {
	jobs := make([]harness.Job, len(cfgs))
	for i, cfg := range cfgs {
		key, err := cfg.Hash()
		if err != nil {
			return nil, err
		}
		if !cfg.Guards.Enabled() {
			cfg.Guards = opt.Guards
		}
		if cfg.Workers == 0 {
			cfg.Workers = opt.Workers
		}
		jobs[i] = harness.Job{Key: key, Fn: func() (any, error) {
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			return res, nil
		}}
	}

	var journal *harness.Journal
	if opt.Journal != "" {
		j, err := harness.OpenJournal(opt.Journal)
		if err != nil {
			return nil, err
		}
		journal = j
	}
	outs := supervise(jobs, opt.Parallel, harness.Options{Journal: journal, Replay: true})
	if journal != nil {
		if cerr := journal.Close(); cerr != nil {
			return outs, cerr
		}
	}
	return outs, nil
}

// supervise submits the jobs to a pool of parallel workers (at least
// one), closes it, and returns the outcomes in job order. A successful
// job's value is a *Result, or its journaled encoding when resumed.
func supervise(jobs []harness.Job, parallel int, opt harness.Options) []runOutcome {
	outs := make([]runOutcome, len(jobs))
	pool := harness.NewPool(max(1, min(parallel, len(jobs))), opt)
	for i, job := range jobs {
		pool.Submit(job, func(o harness.Outcome) {
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
			outs[i] = ro
		})
	}
	pool.Close()
	return outs
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
