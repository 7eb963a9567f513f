package harness

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{fmt.Errorf("run aborted: %w", ErrDeadline), ClassDeadline},
		{fmt.Errorf("run aborted: %w", ErrEventBudget), ClassEventBudget},
		{fmt.Errorf("run aborted: %w", ErrLivelock), ClassLivelock},
		{fmt.Errorf("recovered: %w", ErrPanic), ClassPanic},
		{fmt.Errorf("bad state: %w", ErrInvariant), ClassInvariant},
		{fmt.Errorf("diverged: %w", ErrNonDeterministic), ClassNonDeterministic},
		{errors.New("something else"), ClassError},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestSentinelRoundTrip(t *testing.T) {
	for _, c := range worstFirst {
		if c == ClassError {
			continue
		}
		s := Sentinel(c)
		if s == nil {
			t.Fatalf("no sentinel for %q", c)
		}
		if got := Classify(fmt.Errorf("wrapped: %w", s)); got != c {
			t.Errorf("class %q round-trips to %q", c, got)
		}
	}
	if Sentinel(ClassError) != nil || Sentinel(ClassOK) != nil {
		t.Fatal("ClassError/ClassOK must have no sentinel")
	}
}

func TestWorstOfOrdering(t *testing.T) {
	counts := map[Class]int{ClassInvariant: 3, ClassLivelock: 1}
	if got := WorstOf(counts); got != ClassLivelock {
		t.Fatalf("WorstOf = %q, want livelock", got)
	}
	if got := WorstOf(map[Class]int{}); got != ClassOK {
		t.Fatalf("WorstOf(empty) = %q, want ok", got)
	}
}

// TestReplayClassifiesNonDeterministic: a deliberately nondeterministic
// job — fails first, succeeds on replay — must be reclassified
// ErrNonDeterministic; a deterministic failure must keep its class.
func TestReplayClassifiesNonDeterministic(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	count := func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		calls[key]++
		return calls[key]
	}
	jobs := []Job{
		{Key: "flaky", Fn: func() (any, error) {
			if count("flaky") == 1 {
				return nil, fmt.Errorf("first attempt: %w", ErrLivelock)
			}
			return "fine", nil
		}},
		{Key: "stuck", Fn: func() (any, error) {
			count("stuck")
			return nil, fmt.Errorf("always: %w", ErrLivelock)
		}},
	}
	outs := runAll(jobs, 1, Options{Replay: true})
	if outs[0].Class != ClassNonDeterministic || !errors.Is(outs[0].Err, ErrNonDeterministic) {
		t.Fatalf("flaky job classified %q (%v)", outs[0].Class, outs[0].Err)
	}
	if outs[1].Class != ClassLivelock {
		t.Fatalf("deterministic failure reclassified %q", outs[1].Class)
	}
	if calls["flaky"] != 2 || calls["stuck"] != 2 {
		t.Fatalf("replay counts %v, want exactly one replay each", calls)
	}
	if !outs[0].Replayed || !outs[1].Replayed {
		t.Fatalf("replay not reported: %+v", outs)
	}
}

// TestReplaySkipsDeadline: wall-clock failures depend on host load, so
// the replay classifier must not relabel them nondeterministic.
func TestReplaySkipsDeadline(t *testing.T) {
	calls := 0
	jobs := []Job{{Key: "slow", Fn: func() (any, error) {
		calls++
		return nil, fmt.Errorf("too slow: %w", ErrDeadline)
	}}}
	outs := runAll(jobs, 1, Options{Replay: true})
	if calls != 1 {
		t.Fatalf("deadline failure replayed %d times", calls)
	}
	if outs[0].Class != ClassDeadline {
		t.Fatalf("class %q", outs[0].Class)
	}
}

func TestWatchdogEventBudget(t *testing.T) {
	ev := uint64(0)
	wd := NewWatchdog(func() int64 { return int64(ev) }, func() uint64 { return ev }, WatchdogConfig{MaxEvents: 100})
	ev = 99
	if err := wd(); err != nil {
		t.Fatalf("budget tripped early: %v", err)
	}
	ev = 100
	if err := wd(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("want ErrEventBudget, got %v", err)
	}
}

func TestWatchdogLivelock(t *testing.T) {
	now, ev := int64(0), uint64(0)
	wd := NewWatchdog(func() int64 { return now }, func() uint64 { return ev }, WatchdogConfig{LivelockWindow: 1000})
	// Time advancing: no trip no matter how many events.
	for i := 0; i < 10; i++ {
		now++
		ev += 500
		if err := wd(); err != nil {
			t.Fatalf("tripped while advancing: %v", err)
		}
	}
	// Clock frozen: trips once the window passes.
	ev += 999
	if err := wd(); err != nil {
		t.Fatalf("tripped inside window: %v", err)
	}
	ev += 1
	if err := wd(); !errors.Is(err, ErrLivelock) {
		t.Fatalf("want ErrLivelock, got %v", err)
	}
}

func TestWatchdogWallClock(t *testing.T) {
	wd := NewWatchdog(func() int64 { return 0 }, func() uint64 { return 0 }, WatchdogConfig{WallClock: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if err := wd(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

func TestWatchdogInterval(t *testing.T) {
	if got := (WatchdogConfig{}).Interval(); got != defaultCheckEvery {
		t.Fatalf("default interval %d", got)
	}
	if got := (WatchdogConfig{MaxEvents: 100}).Interval(); got != 100 {
		t.Fatalf("budget-capped interval %d", got)
	}
	if got := (WatchdogConfig{LivelockWindow: 7, CheckEvery: 50}).Interval(); got != 7 {
		t.Fatalf("livelock-capped interval %d", got)
	}
}
