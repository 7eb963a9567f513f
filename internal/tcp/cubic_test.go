package tcp

import (
	"math"
	"testing"

	"muzha/internal/sim"
)

// cubicRounds drives the variant through ack-clocked rounds: each round
// advances the clock by rtt and delivers one ACK per cwnd segment (the
// ack clock of a fully-utilized window), returning the per-round cwnd
// trajectory.
func cubicRounds(s *sim.Simulator, snd *Sender, v *CUBIC, rtt sim.Time, rounds int) []float64 {
	traj := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		s.Run(s.Now() + rtt)
		for i := 0; i < int(snd.Cwnd()); i++ {
			v.OnNewAck(snd, ackFor(1<<40, -1), int64(snd.MSS()))
		}
		traj = append(traj, snd.Cwnd())
	}
	return traj
}

// TestCUBICConcaveThenConvex pins the RFC 8312 window shape after a
// loss: growth decelerates while climbing back toward W_max (concave
// region), plateaus at the origin, then accelerates past it (convex
// probing region).
func TestCUBICConcaveThenConvex(t *testing.T) {
	v := NewCUBIC()
	s, snd, _, _ := testSender(t, v, func(c *SenderConfig) { c.AdvertisedWindow = 1 << 20 })
	snd.SetCwnd(100)
	snd.SetSsthresh(50) // congestion avoidance

	// Congestion event at w=100: W_max=100, ssthresh=70, then exit
	// recovery at ssthresh.
	v.OnDupAck(snd, ackFor(0, -1), 3)
	if got := v.WMax(); got != 100 {
		t.Fatalf("W_max after first loss = %g, want 100", got)
	}
	v.OnNewAck(snd, ackFor(snd.SndNxt(), -1), int64(snd.MSS()))
	if got := snd.Cwnd(); got != 70 {
		t.Fatalf("post-recovery cwnd = %g, want ssthresh 70", got)
	}

	// K = cbrt((100-70)/0.4) ~ 4.2s; at 100ms rounds the plateau sits
	// near round 42. 80 rounds crosses well into the convex region.
	const rtt = 100 * sim.Millisecond
	traj := cubicRounds(s, snd, v, rtt, 80)

	delta := func(r int) float64 {
		if r == 0 {
			return traj[0] - 70
		}
		return traj[r] - traj[r-1]
	}
	for r := range traj {
		if d := delta(r); d < 0 {
			t.Fatalf("round %d: cwnd shrank by %g without a loss", r, -d)
		}
	}
	// Concave: growth at round 8 dominates growth near the plateau.
	if delta(8) <= 2*delta(34) {
		t.Errorf("concave region not decelerating: delta(8)=%g, delta(34)=%g", delta(8), delta(34))
	}
	// Convex: growth at the end dominates growth just past the plateau.
	if delta(79) <= 2*delta(46) {
		t.Errorf("convex region not accelerating: delta(46)=%g, delta(79)=%g", delta(46), delta(79))
	}
	// The convex region probes beyond the pre-loss operating point.
	if traj[79] <= 100 {
		t.Errorf("cwnd after 80 rounds = %g, never passed W_max 100", traj[79])
	}
}

// TestCUBICRFC8312ReferenceValues pins RFC 8312's worked numbers for a
// loss at W_max = 100 segments. The expected values are written out
// from C = 0.4 and beta_cubic = 0.7 rather than derived from cubicC and
// cubicBeta, so a drift in either constant fails here.
func TestCUBICRFC8312ReferenceValues(t *testing.T) {
	const (
		wantK     = 4.217163         // section 4.1: cbrt(W_max*(1-beta)/C) = cbrt(75) s
		wantAlpha = 0.52941176470588 // section 4.2: 3*(1-beta)/(1+beta) = 9/17 per RTT
	)
	v := NewCUBIC()
	s, snd, _, _ := testSender(t, v, func(c *SenderConfig) { c.AdvertisedWindow = 1 << 20 })
	snd.SetCwnd(100)
	snd.SetSsthresh(50) // congestion avoidance
	v.OnDupAck(snd, ackFor(0, -1), 3)
	v.OnNewAck(snd, ackFor(snd.SndNxt(), -1), int64(snd.MSS())) // exit recovery
	if got := snd.Cwnd(); got != 70 {
		t.Fatalf("window after the reduction = %g, want W_max*beta = 70", got)
	}

	// The first congestion-avoidance ACK opens the epoch with W_est =
	// W_max*beta; each ACK then adds alpha/cwnd, i.e. alpha per RTT of
	// cwnd ACKs.
	s.Run(s.Now() + 100*sim.Millisecond)
	wEst := 70.0
	for i := 0; i < 10; i++ {
		v.OnNewAck(snd, ackFor(1<<40, -1), int64(snd.MSS()))
		if got := (v.wEst - wEst) * snd.Cwnd(); math.Abs(got-wantAlpha) > 1e-9 {
			t.Fatalf("ACK %d: W_est slope = %.12g per RTT, want 3(1-beta)/(1+beta) = %.12g", i, got, wantAlpha)
		}
		wEst = v.wEst
	}

	if math.Abs(v.k-wantK) > 1e-6 {
		t.Errorf("K = %.7f s, want cbrt(75) = %.7f s", v.k, wantK)
	}
	if got := v.wCubic(0); math.Abs(got-70) > 1e-9 {
		t.Errorf("W_cubic(0) = %.12g, want 70", got)
	}
	if got := v.wCubic(v.k); got != 100 {
		t.Errorf("W_cubic(K) = %g, want W_max = 100", got)
	}
}

// TestCUBICFastConvergence pins RFC 8312 4.6: when a flow plateaus
// below its previous W_max, fast convergence remembers less
// (W_max = w*(1+beta)/2) to release bandwidth to newer flows.
func TestCUBICFastConvergence(t *testing.T) {
	v := NewCUBIC()
	_, snd, w, fl := testSender(t, v, func(c *SenderConfig) { c.AdvertisedWindow = 1 << 20 })

	snd.SetCwnd(100)
	snd.SetSsthresh(50)
	v.OnDupAck(snd, ackFor(0, -1), 3)
	if got := v.WMax(); got != 100 {
		t.Fatalf("first loss: W_max = %g, want the full window 100", got)
	}
	if got := snd.Ssthresh(); got != 70 {
		t.Fatalf("first loss: ssthresh = %g, want 100*beta = 70", got)
	}
	if len(w.take()) == 0 {
		t.Fatal("fast retransmit did not resend the hole")
	}
	if fl.FastRecoveries != 1 {
		t.Fatalf("FastRecoveries = %d, want 1", fl.FastRecoveries)
	}
	v.OnNewAck(snd, ackFor(snd.SndNxt(), -1), int64(snd.MSS())) // exit recovery

	// Second loss below the previous W_max: remember only
	// 80*(1+0.7)/2 = 68 instead of 80.
	snd.SetCwnd(80)
	v.OnDupAck(snd, ackFor(0, -1), 3)
	if got := v.WMax(); got != 68 {
		t.Fatalf("fast convergence: W_max = %g, want 68", got)
	}

	// Without fast convergence the same event remembers the full 80.
	plain := &CUBIC{}
	plain.registerLoss(100)
	plain.registerLoss(80)
	if got := plain.WMax(); got != 80 {
		t.Fatalf("without fast convergence: W_max = %g, want 80", got)
	}
}

// TestCUBICTimeoutCollapses pins the RTO reaction: window to one
// segment, ssthresh to beta*cwnd, W_max updated.
func TestCUBICTimeoutCollapses(t *testing.T) {
	v := NewCUBIC()
	_, snd, _, _ := testSender(t, v, nil)
	snd.SetCwnd(40)
	snd.SetSsthresh(20)
	v.OnTimeout(snd)
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd after RTO = %g, want 1", snd.Cwnd())
	}
	if got := snd.Ssthresh(); got != 28 {
		t.Fatalf("ssthresh after RTO = %g, want 40*beta = 28", got)
	}
	if got := v.WMax(); got != 40 {
		t.Fatalf("W_max after RTO = %g, want 40", got)
	}
}

// TestCUBICSlowStartAndRecoveryBookkeeping drives the full sender path:
// slow start doubles per RTT, and a partial ACK during recovery
// retransmits the next hole without leaving recovery.
func TestCUBICSlowStartAndRecoveryBookkeeping(t *testing.T) {
	v := NewCUBIC()
	s, snd, w, fl := testSender(t, v, nil)
	snd.Start()
	for _, want := range []float64{2, 4, 8} {
		s.Run(s.Now() + 50*sim.Millisecond)
		ackAll(snd, w, 1000)
		if snd.Cwnd() != want {
			t.Fatalf("slow start: cwnd = %g, want %g", snd.Cwnd(), want)
		}
	}
	w.take()
	// Three dup ACKs at the current ack point enter recovery.
	base := snd.SndUna()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(base, -1))
	}
	if fl.FastRecoveries != 1 {
		t.Fatalf("FastRecoveries = %d, want 1", fl.FastRecoveries)
	}
	retx := w.take()
	if len(retx) == 0 || retx[0].TCP.Seq != base {
		t.Fatalf("fast retransmit did not resend seq %d", base)
	}
	// A partial ACK (below the recovery point) retransmits the next
	// hole and stays in recovery.
	snd.Recv(ackFor(base+1000, -1))
	part := w.take()
	if len(part) == 0 || part[0].TCP.Seq != base+1000 {
		t.Fatalf("partial ACK did not retransmit the next hole, got %d pkts", len(part))
	}
	if !v.rec.Active() {
		t.Fatal("partial ACK ended recovery early")
	}
	// The full ACK ends recovery at ssthresh.
	snd.Recv(ackFor(snd.SndNxt(), -1))
	if v.rec.Active() {
		t.Fatal("full ACK did not end recovery")
	}
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatalf("post-recovery cwnd = %g, want ssthresh %g", snd.Cwnd(), snd.Ssthresh())
	}
}
