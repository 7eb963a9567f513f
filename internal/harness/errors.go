// Package harness supervises simulation runs: one worker pool (an
// unbounded FIFO queue drained by a fixed set of workers) with per-job
// panic containment and failure replay, a typed failure taxonomy, a
// wall-clock/event-budget/livelock watchdog that the engine checks
// cooperatively, and a JSONL journal that makes interrupted sweeps
// resumable. Batch sweeps submit every job and close the pool; the
// muzhad daemon submits jobs as clients send them and bounds its own
// admission.
//
// The package is deliberately generic — jobs are plain closures — so it
// carries no dependency on the simulation model and the root package can
// route every sweep through it without an import cycle.
package harness

import (
	"errors"
	"fmt"
)

// Sentinel errors of the failure taxonomy. Guard aborts, panics and
// classifier verdicts wrap exactly one of these so callers can triage
// with errors.Is.
var (
	// ErrDeadline marks a run that exceeded its wall-clock deadline.
	ErrDeadline = errors.New("wall-clock deadline exceeded")
	// ErrEventBudget marks a run that executed more events than budgeted.
	ErrEventBudget = errors.New("event budget exhausted")
	// ErrLivelock marks a run whose virtual clock stopped advancing while
	// events kept executing (a zero-delay event cycle).
	ErrLivelock = errors.New("livelock: virtual time not advancing")
	// ErrPanic marks a run that panicked and was recovered.
	ErrPanic = errors.New("panic")
	// ErrInvariant marks a run whose result carried Always-invariant
	// violations.
	ErrInvariant = errors.New("invariant violation")
	// ErrNonDeterministic marks a scenario whose replay diverged from the
	// first attempt — a determinism bug in the model, not the scenario.
	ErrNonDeterministic = errors.New("nondeterministic")
	// ErrCanceled marks a run aborted by its Cancel channel — an
	// operator decision (daemon drain, client abort), not a model
	// failure.
	ErrCanceled = errors.New("run canceled")
)

// Class names a failure class; the empty class means the run succeeded.
type Class string

// The failure classes, most severe first in worstFirst order.
const (
	ClassOK               Class = ""
	ClassPanic            Class = "panic"
	ClassLivelock         Class = "livelock"
	ClassEventBudget      Class = "event-budget"
	ClassDeadline         Class = "deadline"
	ClassNonDeterministic Class = "nondeterministic"
	ClassInvariant        Class = "invariant"
	ClassCanceled         Class = "canceled"
	ClassError            Class = "error"
)

// worstFirst orders the classes by triage severity: an engine panic
// outranks a stuck run, which outranks divergence and invariant noise.
var worstFirst = []Class{
	ClassPanic, ClassLivelock, ClassEventBudget, ClassDeadline,
	ClassNonDeterministic, ClassInvariant, ClassCanceled, ClassError,
}

// WorstFirst returns every failure class, most severe first — the order
// failure tallies are reported in.
func WorstFirst() []Class { return append([]Class(nil), worstFirst...) }

// Classify maps an error to its failure class. A nil error is ClassOK;
// an error wrapping none of the sentinels is ClassError.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, ErrNonDeterministic):
		return ClassNonDeterministic
	case errors.Is(err, ErrPanic):
		return ClassPanic
	case errors.Is(err, ErrLivelock):
		return ClassLivelock
	case errors.Is(err, ErrEventBudget):
		return ClassEventBudget
	case errors.Is(err, ErrDeadline):
		return ClassDeadline
	case errors.Is(err, ErrInvariant):
		return ClassInvariant
	case errors.Is(err, ErrCanceled):
		return ClassCanceled
	default:
		return ClassError
	}
}

// Sentinel returns the class's sentinel error, or nil for ClassOK and
// ClassError (which has no sentinel).
func Sentinel(c Class) error {
	switch c {
	case ClassDeadline:
		return ErrDeadline
	case ClassEventBudget:
		return ErrEventBudget
	case ClassLivelock:
		return ErrLivelock
	case ClassPanic:
		return ErrPanic
	case ClassInvariant:
		return ErrInvariant
	case ClassNonDeterministic:
		return ErrNonDeterministic
	case ClassCanceled:
		return ErrCanceled
	}
	return nil
}

// WorstOf returns the most severe class with a nonzero count, or ClassOK
// when the map holds no failures.
func WorstOf(counts map[Class]int) Class {
	for _, c := range worstFirst {
		if counts[c] > 0 {
			return c
		}
	}
	return ClassOK
}

// resumeError reconstructs a journaled failure so a resumed sweep
// classifies it exactly like the original run did.
func resumeError(class Class, msg string) error {
	if s := Sentinel(class); s != nil {
		return fmt.Errorf("%w (resumed): %s", s, msg)
	}
	return fmt.Errorf("resumed failure: %s", msg)
}
