package harness

import (
	"fmt"
	"time"
)

// defaultCheckEvery is how many engine events pass between watchdog
// checks. Checks are two function calls and a few compares, so even
// tight intervals cost little against microsecond-scale events.
const defaultCheckEvery = 1024

// DefaultLivelockWindow is the LivelockWindow the command-line tools and
// the job server arm by default: five million events without the
// virtual clock advancing is far beyond any zero-delay burst a healthy
// run produces.
const DefaultLivelockWindow = 5_000_000

// WatchdogConfig bounds one run's resource usage; the root package
// exports it as muzha.RunGuards. Each zero value disables that guard.
// The engine checks the guards cooperatively every Interval() events; a
// tripped guard aborts the run cleanly — no leaked goroutine, no
// partial Result — with an error wrapping ErrDeadline, ErrEventBudget
// or ErrLivelock.
type WatchdogConfig struct {
	// WallClock aborts the run once this much real time has elapsed
	// (ErrDeadline). The abort point depends on host speed, but a run
	// that completes is bit-for-bit identical regardless.
	WallClock time.Duration
	// MaxEvents aborts once the engine has executed this many events
	// (ErrEventBudget).
	MaxEvents uint64
	// LivelockWindow aborts once this many consecutive events execute
	// without the virtual clock advancing (ErrLivelock) — a zero-delay
	// event cycle that would otherwise spin forever.
	LivelockWindow uint64
}

// Enabled reports whether any guard is armed.
func (c WatchdogConfig) Enabled() bool {
	return c.WallClock > 0 || c.MaxEvents > 0 || c.LivelockWindow > 0
}

// Interval returns the effective check period: every 1024 events,
// capped by the event budget and livelock window so neither can be
// overshot by a whole period.
func (c WatchdogConfig) Interval() uint64 {
	every := uint64(defaultCheckEvery)
	if c.MaxEvents > 0 && c.MaxEvents < every {
		every = c.MaxEvents
	}
	if c.LivelockWindow > 0 && c.LivelockWindow < every {
		every = c.LivelockWindow
	}
	return every
}

// NewWatchdog builds a guard function for a simulation engine. The
// engine calls it every Interval() events with now (virtual time in
// nanoseconds) and events (total events executed) readable through the
// two accessors; a non-nil return aborts the run with a classified
// error. The wall clock starts when NewWatchdog is called, so build the
// watchdog immediately before starting the run.
func NewWatchdog(now func() int64, events func() uint64, c WatchdogConfig) func() error {
	start := time.Now()
	lastNow := int64(-1)
	var lastAdvance uint64
	return func() error {
		ev := events()
		if c.MaxEvents > 0 && ev >= c.MaxEvents {
			return fmt.Errorf("%w: %d events executed (budget %d)", ErrEventBudget, ev, c.MaxEvents)
		}
		if c.LivelockWindow > 0 {
			if n := now(); n != lastNow {
				lastNow = n
				lastAdvance = ev
			} else if ev-lastAdvance >= c.LivelockWindow {
				return fmt.Errorf("%w: stuck at t=%dns for %d events", ErrLivelock, lastNow, ev-lastAdvance)
			}
		}
		if c.WallClock > 0 {
			if elapsed := time.Since(start); elapsed > c.WallClock {
				return fmt.Errorf("%w: %v elapsed (deadline %v)", ErrDeadline, elapsed.Round(time.Millisecond), c.WallClock)
			}
		}
		return nil
	}
}
