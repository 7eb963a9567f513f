package sim

import (
	"fmt"
	"testing"
)

// Engine microbenchmarks. These isolate the event-queue costs from the
// full-run numbers in the repository root's BenchmarkScenario4HopChain:
// steady-state schedule/fire churn, the hold model at two queue sizes,
// schedule-then-cancel churn (lazy deletion + compaction), and the
// TCP-style rearm-per-ACK timer pattern.
// All report events/s so the CI benchmark gate (cmd/benchgate) can
// compare them against BENCH_sim.json uniformly.

// BenchmarkEventChurn measures steady-state schedule+fire throughput
// with 256 concurrent self-rescheduling chains — the shape of a running
// simulation's heap. Expect ~0 allocs/op once the pool is primed.
func BenchmarkEventChurn(b *testing.B) {
	s := New(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			s.Schedule(256*Microsecond, tick)
		}
	}
	const chains = 256
	for i := 0; i < chains && i < b.N; i++ {
		s.Schedule(Time(i)*Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll()
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkHoldModel is the classic event-queue hold model: a fixed
// population of pending events in which every fired event schedules one
// successor a random 1-1000 us later. Each firing is the fused pop+push
// the held root exists for; the two populations bracket the mean queue
// lengths of the chain and 1000-node scenarios. An op is one event; the
// pool is primed before the timer starts, so it allocates nothing.
func BenchmarkHoldModel(b *testing.B) {
	for _, pop := range []int{16, 128} {
		b.Run(fmt.Sprintf("events=%d", pop), func(b *testing.B) {
			s := New(1)
			rng := s.Rand()
			scheduled := 0
			var hold func()
			hold = func() {
				if scheduled < b.N {
					scheduled++
					s.Schedule(Time(1+rng.Intn(1000))*Microsecond, hold)
				}
			}
			for i := 0; i < pop && scheduled < b.N; i++ {
				scheduled++
				s.Schedule(Time(1+rng.Intn(1000))*Microsecond, hold)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.RunAll()
			b.ReportMetric(float64(s.EventsExecuted())/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkScheduleCancel measures the cancel-heavy pattern: every
// iteration schedules an event and cancels the previous one, so the
// queue is almost entirely lazily-deleted slots and the compactor has to
// keep it from bloating.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New(1)
	// Background population so heap operations have realistic depth.
	for i := 0; i < 1024; i++ {
		s.At(Time(1+i)*Second, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ref EventRef
	for i := 0; i < b.N; i++ {
		ref.Cancel()
		ref = s.Schedule(Time(i%1000+1)*Microsecond, func() {})
	}
	b.StopTimer()
	if s.QueueLen() > 2*(1024+compactMin) {
		b.Fatalf("queue bloated to %d slots; compaction is broken", s.QueueLen())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTimerRearm measures the retransmission-timer pattern: a
// pending timer rearmed once per ACK. The in-place reschedule fast path
// must make this allocation-free.
func BenchmarkTimerRearm(b *testing.B) {
	s := New(1)
	for i := 0; i < 1024; i++ {
		s.At(Time(1+i)*Second, func() {})
	}
	tm := NewTimer(s, func() {})
	tm.Reset(Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Time(i%1000+1) * Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
