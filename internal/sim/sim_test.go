package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*Millisecond, func() { got = append(got, 3) })
	s.Schedule(1*Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*Millisecond, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(Millisecond, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	s := New(1)
	var at Time
	s.Schedule(5*Second, func() { at = s.Now() })
	s.RunAll()
	if at != 5*Second {
		t.Fatalf("Now inside event = %v, want 5s", at)
	}
	if s.Now() != 5*Second {
		t.Fatalf("final Now = %v, want 5s", s.Now())
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(10*Second, func() { fired = true })
	end := s.Run(3 * Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 3*Second {
		t.Fatalf("Run returned %v, want 3s", end)
	}
	// The event must still be pending and fire on a later Run.
	s.Run(20 * Second)
	if !fired {
		t.Fatal("event did not fire after extending horizon")
	}
}

func TestRunAtExactHorizon(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(3*Second, func() { fired = true })
	s.Run(3 * Second)
	if !fired {
		t.Fatal("event exactly at horizon should fire")
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(Millisecond, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	e := s.Schedule(Millisecond, func() {})
	s.RunAll()
	if e.Cancel() {
		t.Fatal("Cancel after fire should return false")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var got []Time
	s.Schedule(Second, func() {
		got = append(got, s.Now())
		s.Schedule(Second, func() { got = append(got, s.Now()) })
	})
	s.RunAll()
	if len(got) != 2 || got[0] != Second || got[1] != 2*Second {
		t.Fatalf("nested schedule times = %v", got)
	}
}

func TestScheduleZeroAndNegativeDelay(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(Second, func() {
		s.Schedule(0, func() { got = append(got, 1) })
		s.Schedule(-5*Second, func() { got = append(got, 2) })
	})
	s.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("zero/negative delay events = %v", got)
	}
	if s.Now() != Second {
		t.Fatalf("clock moved on zero-delay events: %v", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i)*Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestTimerResetAndStop(t *testing.T) {
	s := New(1)
	fires := 0
	tm := NewTimer(s, func() { fires++ })
	tm.Reset(Second)
	tm.Reset(2 * Second) // supersedes the first arming
	if !tm.Pending() {
		t.Fatal("timer should be pending after Reset")
	}
	if tm.ExpiresAt() != 2*Second {
		t.Fatalf("ExpiresAt = %v, want 2s", tm.ExpiresAt())
	}
	s.RunAll()
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}

	tm.Reset(Second)
	if !tm.Stop() {
		t.Fatal("Stop should cancel a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report nothing cancelled")
	}
	s.RunAll()
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Fatalf("Seconds() = %v", (2 * Second).Seconds())
	}
	if FromDuration(1500*time.Millisecond) != 1500*Millisecond {
		t.Fatal("FromDuration mismatch")
	}
	if (3 * Second).Duration() != 3*time.Second {
		t.Fatal("Duration mismatch")
	}
}

func TestEventsExecutedCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i)*Millisecond, func() {})
	}
	e := s.Schedule(6*Millisecond, func() {})
	e.Cancel()
	s.RunAll()
	if s.EventsExecuted() != 5 {
		t.Fatalf("EventsExecuted = %d, want 5 (cancelled events don't count)", s.EventsExecuted())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock matches each event's scheduled time.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delaysRaw []uint32) bool {
		s := New(7)
		var fireTimes []Time
		want := make([]Time, 0, len(delaysRaw))
		for _, d := range delaysRaw {
			at := Time(d % 1e6 * uint32(Microsecond))
			want = append(want, at)
			s.At(at, func() {
				if s.Now() != at {
					t.Errorf("event at %v fired at %v", at, s.Now())
				}
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.RunAll()
		if len(fireTimes) != len(want) {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fireTimes[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never fires those events and fires
// all others.
func TestQuickCancellation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		s := New(1)
		rng := rand.New(rand.NewSource(seed))
		fired := make([]bool, n)
		cancel := make([]bool, n)
		events := make([]EventRef, n)
		for i := 0; i < int(n); i++ {
			i := i
			events[i] = s.Schedule(Time(rng.Intn(1000))*Microsecond, func() { fired[i] = true })
			cancel[i] = rng.Intn(2) == 0
		}
		for i, c := range cancel {
			if c {
				events[i].Cancel()
			}
		}
		s.RunAll()
		for i := range fired {
			if fired[i] == cancel[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleInert pins the safety property of the event pool: a
// handle kept past its event's firing must become inert, even when the
// underlying slot has been recycled for a new event.
func TestStaleHandleInert(t *testing.T) {
	s := New(1)
	stale := s.Schedule(Millisecond, func() {})
	s.RunAll()
	if stale.Pending() {
		t.Fatal("fired event still reports Pending")
	}
	// The pool now reuses the slot for a fresh event; the stale handle
	// must not be able to cancel it.
	fired := false
	fresh := s.Schedule(Millisecond, func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	s.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if fresh.Pending() {
		t.Fatal("fired recycled event still pending")
	}
}

// TestEventPoolReuse verifies steady-state scheduling stops allocating
// once the pool is primed.
func TestEventPoolReuse(t *testing.T) {
	s := New(1)
	// Prime: chain of self-rescheduling events.
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10_000 {
			s.Schedule(Microsecond, tick)
		}
	}
	s.Schedule(0, tick)
	allocs := testing.AllocsPerRun(1, func() { s.RunAll() })
	if allocs > 1 {
		t.Fatalf("steady-state run allocated %v times per op", allocs)
	}
}

func TestPendingIsLiveCount(t *testing.T) {
	s := New(1)
	refs := make([]EventRef, 10)
	for i := range refs {
		refs[i] = s.Schedule(Time(i+1)*Millisecond, func() {})
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		refs[i].Cancel()
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6 (cancelled events must not count)", got)
	}
	if got := s.QueueLen(); got != 10 {
		t.Fatalf("QueueLen = %d, want 10 (lazy deletion keeps slots)", got)
	}
	s.RunAll()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestCompaction verifies that heavy cancellation churn cannot bloat the
// queue: once cancelled events outnumber live ones the heap compacts,
// and the surviving events still fire in order.
func TestCompaction(t *testing.T) {
	s := New(1)
	const n = 1000
	refs := make([]EventRef, n)
	for i := 0; i < n; i++ {
		refs[i] = s.Schedule(Time(i+1)*Millisecond, func() {})
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue
		}
		refs[i].Cancel()
	}
	if got := s.QueueLen(); got > n/2+compactMin {
		t.Fatalf("QueueLen = %d after cancelling half of %d events; compaction did not run", got, n)
	}
	if got := s.Pending(); got != n/2 {
		t.Fatalf("Pending = %d, want %d", got, n/2)
	}
	var fired int
	var last Time
	s.SetEventHook(func(at Time, _ uint64) {
		if at < last {
			t.Fatalf("post-compaction order broken: %v after %v", at, last)
		}
		last = at
		fired++
	})
	s.RunAll()
	if fired != n/2 {
		t.Fatalf("fired %d events, want %d", fired, n/2)
	}
}

// TestTimerRearmInPlace verifies the no-allocation rearm fast path: a
// pending timer's Reset moves the queued event instead of reallocating,
// and the timer still fires exactly once at the latest deadline.
func TestTimerRearmInPlace(t *testing.T) {
	s := New(1)
	fires := 0
	tm := NewTimer(s, func() { fires++ })
	tm.Reset(Second)
	before := s.QueueLen()
	allocs := testing.AllocsPerRun(100, func() { tm.Reset(2 * Second) })
	if allocs != 0 {
		t.Fatalf("pending-timer Reset allocated %v times per op", allocs)
	}
	if got := s.QueueLen(); got != before {
		t.Fatalf("rearm grew the queue: %d -> %d", before, got)
	}
	tm.Reset(3 * Second)
	if tm.ExpiresAt() != 3*Second {
		t.Fatalf("ExpiresAt = %v, want 3s", tm.ExpiresAt())
	}
	s.RunAll()
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
	// Earlier rearms must also take effect.
	tm.Reset(10 * Second)
	tm.Reset(Second)
	end := s.RunAll()
	if fires != 2 || end != 4*Second {
		t.Fatalf("earlier rearm: fires=%d end=%v, want 2 fires at t=4s", fires, end)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(i%1000)*Microsecond, func() {})
	}
	s.RunAll()
}
