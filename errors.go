package muzha

import "muzha/internal/harness"

// The supervised-sweep failure taxonomy, re-exported from the internal
// harness so callers can triage Run and sweep errors with errors.Is.
var (
	// ErrDeadline: the run exceeded Config.Guards.WallClock.
	ErrDeadline = harness.ErrDeadline
	// ErrEventBudget: the run executed more than Config.Guards.MaxEvents
	// events.
	ErrEventBudget = harness.ErrEventBudget
	// ErrLivelock: the virtual clock stopped advancing for
	// Config.Guards.LivelockWindow consecutive events (a zero-delay
	// event cycle).
	ErrLivelock = harness.ErrLivelock
	// ErrPanic: the engine panicked and Run recovered it.
	ErrPanic = harness.ErrPanic
	// ErrInvariant: an Always run-time invariant was violated.
	ErrInvariant = harness.ErrInvariant
	// ErrNonDeterministic: replaying the identical scenario diverged
	// from the first attempt — a determinism bug in the simulator.
	ErrNonDeterministic = harness.ErrNonDeterministic
	// ErrCanceled: the run was aborted by its Config.Cancel channel
	// (daemon drain, client abort).
	ErrCanceled = harness.ErrCanceled
)

// Failure-class names, as reported by Classify, ClassifyRun and
// SweepError.Counts. The empty string means success.
const (
	ClassPanic            = string(harness.ClassPanic)
	ClassLivelock         = string(harness.ClassLivelock)
	ClassEventBudget      = string(harness.ClassEventBudget)
	ClassDeadline         = string(harness.ClassDeadline)
	ClassNonDeterministic = string(harness.ClassNonDeterministic)
	ClassInvariant        = string(harness.ClassInvariant)
	ClassCanceled         = string(harness.ClassCanceled)
	ClassError            = string(harness.ClassError)
)

// Classify maps an error from Run or a sweep to its failure-class name:
// "panic", "livelock", "event-budget", "deadline", "nondeterministic",
// "invariant", "error" for unclassified failures, or "" for nil.
func Classify(err error) string { return string(harness.Classify(err)) }

// ClassifyRun names one run's failure class from Run's return values:
// Classify(err) when the run failed, ClassInvariant when it completed
// with an Always assertion violated, or "" for a healthy run.
func ClassifyRun(res *Result, err error) string {
	switch {
	case err != nil:
		return Classify(err)
	case res != nil && res.InvariantViolations > 0:
		return ClassInvariant
	}
	return ""
}
