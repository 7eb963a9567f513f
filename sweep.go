package muzha

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"muzha/internal/harness"
)

// SweepOptions supervises a multi-run sweep: a result store to resume
// from, and per-run guards. The zero value runs unguarded and unstored.
// A sweep runs min(GOMAXPROCS, runs) runs at once, and inside each run
// up to GOMAXPROCS interaction domains simulate at once; no option sets
// either width, and GOMAXPROCS=1 gives a serial sweep. The width only
// changes wall-clock time: every run's Result is bit-for-bit identical
// at any width.
type SweepOptions struct {
	// Journal is the path of a result store: the muzhad cache.jsonl
	// format, keyed by Config.Hash, so a daemon's cache can seed a sweep
	// and a sweep's store can seed a daemon. Each successful run is
	// stored as it completes; a restarted sweep pointed at the same
	// store skips the stored runs and merges their results, so a killed
	// sweep loses only its in-flight work (a line torn by the kill is
	// skipped on resume, see internal/jsonl). Failures are not stored:
	// a failed run runs again. Empty disables the store.
	Journal string
	// Guards bounds every run in the sweep (applied only to runs whose
	// Config carries no guards of its own).
	Guards RunGuards

	// width, when positive, replaces GOMAXPROCS as the number of runs
	// executing at once. The parallel-matches-serial tests set it,
	// hence unexported.
	width int
}

// SweepError summarizes a supervised sweep's failures. The sweep always
// finishes — failed runs are classified, not fatal — and drivers return
// the completed rows alongside a *SweepError describing what was lost.
// errors.Is against ErrPanic, ErrLivelock, ErrEventBudget, ErrDeadline,
// ErrNonDeterministic or ErrInvariant matches the most severe class
// present (and the first failure's own chain).
type SweepError struct {
	// Total and Failed count runs.
	Total, Failed int
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
	Result *Result
	Err    error
	Class  string
	// Resumed marks a Result decoded from the sweep's store, not run.
	Resumed bool
}

// runPool executes one Run per config on the supervised worker pool:
// panics are contained and failures replayed once to classify
// deterministic versus divergent. keys[i] is cfgs[i].Hash(), the muzhad
// cache key. With opt.Journal set, a config whose key the store holds
// is decoded from it instead of run, and each success is stored as it
// completes. The returned error is only for harness plumbing (an
// unopenable or unwritable store); per-run failures live in the
// outcomes.
func runPool(cfgs []Config, keys []string, opt SweepOptions) ([]runOutcome, error) {
	var store *harness.Cache
	if opt.Journal != "" {
		c, err := harness.OpenCache(opt.Journal, harness.CacheLimit{})
		if err != nil {
			return nil, err
		}
		store = c
	}
	outs := make([]runOutcome, len(cfgs))
	var jobs []func() (any, error)
	var slots []int // slots[j] is the index of jobs[j]'s config
	for i, cfg := range cfgs {
		if store != nil {
			var r Result
			if raw, ok := store.Get(keys[i]); ok && json.Unmarshal(raw, &r) == nil {
				outs[i] = runOutcome{Result: &r, Resumed: true}
				continue
			}
		}
		if !cfg.Guards.Enabled() {
			cfg.Guards = opt.Guards
		}
		jobs = append(jobs, func() (any, error) {
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			return res, nil
		})
		slots = append(slots, i)
	}
	var keep func(j int, r *Result)
	if store != nil {
		keep = func(j int, r *Result) { storeResult(store, keys[slots[j]], r) }
	}
	for j, o := range supervise(jobs, opt.width, keep) {
		outs[slots[j]] = o
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// storeResult stores r under key as EncodeResult's bytes, the ones
// muzhad caches for the same config. A Result that cannot be encoded
// is not stored, so it runs again on resume.
func storeResult(store *harness.Cache, key string, r *Result) {
	if b, err := EncodeResult(r); err == nil {
		store.Put(key, b)
	}
}

// supervise submits the jobs to a pool of min(width, len(jobs))
// workers (width <= 0 is GOMAXPROCS) with failure replay, closes it,
// and returns the outcomes in job order. A successful job's value is a
// *Result; keep, when non-nil, receives it from the worker as the job
// finishes.
func supervise(jobs []func() (any, error), width int, keep func(j int, r *Result)) []runOutcome {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	outs := make([]runOutcome, len(jobs))
	pool := harness.NewPool(max(1, min(width, len(jobs))), harness.Options{Replay: true})
	for i, job := range jobs {
		pool.Submit(job, func(o harness.Outcome) {
			ro := runOutcome{Err: o.Err, Class: string(o.Class)}
			if o.Err == nil {
				ro.Result = o.Value.(*Result)
				if keep != nil {
					keep(i, ro.Result)
				}
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
