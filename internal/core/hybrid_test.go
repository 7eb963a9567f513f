package core

import (
	"testing"

	"muzha/internal/sim"
	"muzha/internal/stats"
	"muzha/internal/tcp"
)

func clampedSender(t *testing.T, inner tcp.Variant) (*sim.Simulator, *tcp.Sender, *DRAIClamped) {
	t.Helper()
	s := sim.New(1)
	w := &wire{}
	v := NewDRAIClamped(inner)
	cfg := tcp.SenderConfig{
		FlowID:           1,
		Dst:              4,
		MSS:              1000,
		AdvertisedWindow: 32,
		StampAVBW:        true,
		Stats:            stats.NewFlow(1, "clamped", 0),
	}
	snd, err := tcp.NewSender(s, w.send, cfg, v)
	if err != nil {
		t.Fatal(err)
	}
	return s, snd, v
}

// TestDRAIClampedDecelerates pins the hybrid's core contract: a
// deceleration recommendation echoed in ACKs caps the window the inner
// variant chose, at most once per RTT.
func TestDRAIClampedDecelerates(t *testing.T) {
	s, snd, v := clampedSender(t, tcp.NewNewReno())
	snd.SetCwnd(16)
	snd.SetSsthresh(2) // inner NewReno grows linearly, not exponentially

	s.Run(20 * sim.Millisecond) // past the once-per-RTT gate's t=0 origin
	v.OnNewAck(snd, muzhaAck(1000, DRAIAggressiveDecel, false, -1), 1000)
	if got := snd.Cwnd(); got > 9 {
		t.Fatalf("cwnd = %g after halve recommendation from 16, want <= 9", got)
	}
	if v.Clamps() != 1 {
		t.Fatalf("Clamps = %d, want 1", v.Clamps())
	}

	// A second deceleration inside the same RTT must not re-clamp.
	before := snd.Cwnd()
	v.OnNewAck(snd, muzhaAck(2000, DRAIAggressiveDecel, false, -1), 1000)
	if snd.Cwnd() < before {
		t.Fatalf("clamp re-applied within one RTT: %g -> %g", before, snd.Cwnd())
	}
	if v.Clamps() != 1 {
		t.Fatalf("Clamps = %d after same-RTT ack, want 1", v.Clamps())
	}

	// After an RTT the next recommendation bites again.
	s.Run(s.Now() + 20*sim.Millisecond)
	v.OnNewAck(snd, muzhaAck(3000, DRAIModerateDecel, false, -1), 1000)
	if v.Clamps() != 2 {
		t.Fatalf("Clamps = %d after next-RTT deceleration, want 2", v.Clamps())
	}
}

// TestDRAIClampedIgnoresAcceleration: routers may slow a modern sender
// down but never speed it up beyond its own control law.
func TestDRAIClampedIgnoresAcceleration(t *testing.T) {
	_, snd, v := clampedSender(t, tcp.NewNewReno())
	snd.SetCwnd(4)
	snd.SetSsthresh(2)

	v.OnNewAck(snd, muzhaAck(1000, DRAIAggressiveAccel, false, -1), 1000)
	// Inner NewReno in CA grows by 1/cwnd; a Muzha sender would have
	// doubled to 8.
	if got := snd.Cwnd(); got > 4.5 {
		t.Fatalf("cwnd = %g, acceleration grant must not apply", got)
	}
	if v.Clamps() != 0 {
		t.Fatalf("Clamps = %d, want 0", v.Clamps())
	}
}

// TestDRAIClampedFloor: deceleration stops at MinWindow, the liveness
// floor below which dup-ACK recovery cannot work.
func TestDRAIClampedFloor(t *testing.T) {
	s, snd, v := clampedSender(t, tcp.NewNewReno())
	snd.SetCwnd(3)
	snd.SetSsthresh(2)
	s.Run(20 * sim.Millisecond)
	v.OnNewAck(snd, muzhaAck(1000, DRAIAggressiveDecel, false, -1), 1000)
	if got := snd.Cwnd(); got != v.MinWindow {
		t.Fatalf("cwnd = %g, want floor %g", got, v.MinWindow)
	}
}

// TestDRAIClampedDelegatesLoss: dup-ACK and timeout handling belong to
// the inner variant; the wrapper only forwards (and drops its stale
// recommendation on an RTO).
func TestDRAIClampedDelegatesLoss(t *testing.T) {
	_, snd, v := clampedSender(t, tcp.NewNewReno())
	snd.SetCwnd(16)
	v.OnNewAck(snd, muzhaAck(1000, DRAIAggressiveDecel, false, -1), 1000)

	v.OnTimeout(snd)
	if got := snd.Cwnd(); got != 1 {
		t.Fatalf("cwnd after RTO = %g, want inner NewReno's 1", got)
	}
	if v.minMRAI != 0 {
		t.Fatal("stale recommendation survived the timeout")
	}
}

// TestDRAIClampedBindsInnerSeams: wrapping BBR-lite must still attach
// its pacer and delivery-rate sampler through the Binder seam.
func TestDRAIClampedBindsInnerSeams(t *testing.T) {
	_, snd, _ := clampedSender(t, tcp.NewBBRLite())
	if snd.Pacer() == nil || snd.RateSampler() == nil {
		t.Fatal("Bind did not reach the inner BBR-lite")
	}
}
