package tcp

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

// --- TCP Veno ---

func TestVenoDefaults(t *testing.T) {
	v := NewVeno()
	if v.Beta != 3 {
		t.Fatalf("veno defaults: %+v", v)
	}
}

func TestVenoRandomLossMildReduction(t *testing.T) {
	v := NewVeno()
	s, snd, w, _ := testSender(t, v, func(c *SenderConfig) { c.InitialCwnd = 10 })
	snd.Start()
	segs := w.take()

	// Establish base RTT = last RTT (no backlog: random-loss regime).
	s.Run(40 * sim.Millisecond)
	snd.Recv(ackFor(1000, segs[0].SendTime))
	w.take()

	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(1000, -1))
	}
	// Backlog ~0 < Beta: ssthresh = 4/5 of cwnd, not half.
	want := snd.Cwnd() // cwnd = ssthresh+3 at this point
	if snd.Ssthresh() < 8 {
		t.Fatalf("Veno halved on random loss: ssthresh = %g", snd.Ssthresh())
	}
	_ = want
}

func TestVenoCongestiveLossHalves(t *testing.T) {
	v := NewVeno()
	s, snd, w, _ := testSender(t, v, func(c *SenderConfig) { c.InitialCwnd = 10 })
	snd.Start()
	segs := w.take()

	// Base RTT 40 ms, then an inflated 120 ms RTT: backlog >> Beta.
	s.Run(40 * sim.Millisecond)
	snd.Recv(ackFor(1000, segs[0].SendTime))
	s.Run(s.Now() + 120*sim.Millisecond)
	snd.Recv(ackFor(2000, segs[1].SendTime))
	w.take()

	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(2000, -1))
	}
	if snd.Ssthresh() > 6 {
		t.Fatalf("Veno did not halve on congestive loss: ssthresh = %g", snd.Ssthresh())
	}
}

func TestVenoRecoveryExitsOnFullAck(t *testing.T) {
	v := NewVeno()
	_, snd, w, _ := testSender(t, v, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.take()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(0, -1))
	}
	snd.Recv(ackFor(8000, -1))
	if v.rec.Active() {
		t.Fatal("Veno still in recovery after full ACK")
	}
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatalf("exit deflation: cwnd=%g ssthresh=%g", snd.Cwnd(), snd.Ssthresh())
	}
}

func TestVenoTimeout(t *testing.T) {
	v := NewVeno()
	_, snd, _, _ := testSender(t, v, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	v.OnTimeout(snd)
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd after timeout = %g", snd.Cwnd())
	}
}

// --- TCP Westwood ---

func TestWestwoodBandwidthEstimate(t *testing.T) {
	w := NewWestwood()
	s, snd, wr, _ := testSender(t, w, func(c *SenderConfig) { c.InitialCwnd = 4 })
	snd.Start()
	segs := wr.take()

	// Four ACKs, 10 ms apart, 1000 bytes each: ~100 kB/s.
	for i, p := range segs {
		s.Run(s.Now() + 10*sim.Millisecond)
		snd.Recv(ackFor(int64(i+1)*1000, p.SendTime))
	}
	if w.bwe < 50_000 || w.bwe > 150_000 {
		t.Fatalf("BWE = %.0f B/s, want ~100000", w.bwe)
	}
	if w.minRTT <= 0 {
		t.Fatal("min RTT not tracked")
	}
}

func TestWestwoodLossSetsSsthreshFromPipe(t *testing.T) {
	w := NewWestwood()
	s, snd, wr, _ := testSender(t, w, func(c *SenderConfig) { c.InitialCwnd = 16 })
	snd.Start()
	segs := wr.take()
	// Feed a steady 1000 B / 5 ms = 200 kB/s stream with 40 ms RTT:
	// pipe = 200k * 0.04 / 1000 = 8 segments.
	for i, p := range segs[:8] {
		s.Run(s.Now() + 5*sim.Millisecond)
		snd.Recv(ackFor(int64(i+1)*1000, p.SendTime-int64(35*sim.Millisecond)))
	}
	wr.take()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(8000, -1))
	}
	// ssthresh must come from the pipe estimate, not halving (halving
	// would give ~8 too here, so assert it's in the pipe's ballpark and
	// definitely not the tiny floor).
	if snd.Ssthresh() < 4 || snd.Ssthresh() > 12 {
		t.Fatalf("Westwood ssthresh = %g, want near measured pipe", snd.Ssthresh())
	}
}

func TestWestwoodWithoutEstimateFallsBackToHalf(t *testing.T) {
	w := NewWestwood()
	_, snd, wr, _ := testSender(t, w, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	wr.take()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(0, -1))
	}
	if snd.Ssthresh() != 4 {
		t.Fatalf("fallback ssthresh = %g, want half flight", snd.Ssthresh())
	}
}

func TestWestwoodTimeoutKeepsEstimate(t *testing.T) {
	w := NewWestwood()
	_, snd, _, _ := testSender(t, w, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.bwe = 100_000
	w.minRTT = 40 * sim.Millisecond
	w.OnTimeout(snd)
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd after timeout = %g", snd.Cwnd())
	}
	if snd.Ssthresh() != 4 { // 100kB/s * 40ms / 1000B = 4 segments
		t.Fatalf("ssthresh after timeout = %g, want 4 from BWE", snd.Ssthresh())
	}
}

// --- TCP Jersey ---

func jerseyAck(n int64, marked bool, sendTime int64) *packet.Packet {
	p := ackFor(n, sendTime)
	p.TCP.Echo.Marked = marked
	return p
}

func TestJerseyCongestionWarningRateControl(t *testing.T) {
	j := NewJersey()
	s, snd, w, _ := testSender(t, j, func(c *SenderConfig) { c.InitialCwnd = 12 })
	snd.Start()
	segs := w.take()

	// Build the ABE with unmarked ACKs (~1000 B / 10 ms = 100 kB/s).
	for i, p := range segs[:8] {
		s.Run(s.Now() + 10*sim.Millisecond)
		snd.Recv(jerseyAck(int64(i+1)*1000, false, p.SendTime))
	}
	before := snd.Cwnd()
	// A marked ACK triggers rate control: window drops to ownd.
	s.Run(s.Now() + 10*sim.Millisecond)
	snd.Recv(jerseyAck(9000, true, segs[8].SendTime))
	if snd.Cwnd() >= before {
		t.Fatalf("CW mark did not reduce window: %g -> %g", before, snd.Cwnd())
	}
	if snd.Cwnd() < 2 {
		t.Fatalf("rate control collapsed window: %g", snd.Cwnd())
	}
}

func TestJerseyRateControlOncePerRTT(t *testing.T) {
	j := NewJersey()
	s, snd, w, _ := testSender(t, j, func(c *SenderConfig) { c.InitialCwnd = 12 })
	snd.Start()
	segs := w.take()
	for i, p := range segs[:6] {
		s.Run(s.Now() + 10*sim.Millisecond)
		snd.Recv(jerseyAck(int64(i+1)*1000, false, p.SendTime))
	}
	snd.Recv(jerseyAck(7000, true, segs[6].SendTime))
	after := snd.Cwnd()
	// Immediately-following marked ACK inside the same RTT: no second cut
	// (growth may continue).
	snd.Recv(jerseyAck(8000, true, segs[7].SendTime))
	if snd.Cwnd() < after {
		t.Fatalf("second cut within one RTT: %g -> %g", after, snd.Cwnd())
	}
}

func TestJerseyLossUsesABE(t *testing.T) {
	j := NewJersey()
	s, snd, w, _ := testSender(t, j, func(c *SenderConfig) { c.InitialCwnd = 12 })
	snd.Start()
	segs := w.take()
	for i, p := range segs[:8] {
		s.Run(s.Now() + 10*sim.Millisecond)
		snd.Recv(jerseyAck(int64(i+1)*1000, false, p.SendTime))
	}
	w.take()
	for i := 0; i < 3; i++ {
		snd.Recv(jerseyAck(8000, false, -1))
	}
	if j.ownd(snd) == 0 {
		t.Fatal("no ABE estimate despite traffic")
	}
	if snd.Ssthresh() < 2 {
		t.Fatalf("ssthresh = %g", snd.Ssthresh())
	}
	// Full ACK (everything sent so far) exits recovery.
	snd.Recv(jerseyAck(snd.SndNxt(), false, -1))
	if j.rec.Active() {
		t.Fatal("Jersey stuck in recovery")
	}
}

func TestJerseyTimeout(t *testing.T) {
	j := NewJersey()
	_, snd, _, _ := testSender(t, j, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	j.OnTimeout(snd)
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd after timeout = %g", snd.Cwnd())
	}
}

// --- ECN NewReno ---

func TestECNNewRenoCutsOnMark(t *testing.T) {
	e := NewECNNewReno()
	s, snd, w, _ := testSender(t, e, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	segs := w.take()
	s.Run(40 * sim.Millisecond)
	snd.Recv(jerseyAck(1000, true, segs[0].SendTime))
	// Flight after the ACK is 7 segments: the RFC 3168 response halves
	// to 3.5.
	if snd.Cwnd() != 3.5 {
		t.Fatalf("marked ACK: cwnd = %g, want 3.5 (half of 7 in flight)", snd.Cwnd())
	}
}

func TestECNNewRenoCutsAtMostOncePerRTT(t *testing.T) {
	e := NewECNNewReno()
	s, snd, w, _ := testSender(t, e, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	segs := w.take()
	s.Run(40 * sim.Millisecond)
	snd.Recv(jerseyAck(1000, true, segs[0].SendTime))
	after := snd.Cwnd()
	snd.Recv(jerseyAck(2000, true, segs[1].SendTime))
	if snd.Cwnd() < after {
		t.Fatalf("second ECN cut within one RTT: %g -> %g", after, snd.Cwnd())
	}
}

func TestECNNewRenoUnmarkedBehavesLikeNewReno(t *testing.T) {
	e := NewECNNewReno()
	_, snd, w, _ := testSender(t, e, nil)
	snd.Start()
	ackAll(snd, w, 1000)
	if snd.Cwnd() != 2 {
		t.Fatalf("slow start broken: cwnd = %g", snd.Cwnd())
	}
	ackAll(snd, w, 1000)
	if snd.Cwnd() != 4 {
		t.Fatalf("slow start broken: cwnd = %g", snd.Cwnd())
	}
}

func TestECNNewRenoLossRecoveryDelegates(t *testing.T) {
	e := NewECNNewReno()
	_, snd, w, fl := testSender(t, e, func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.take()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(0, -1))
	}
	if fl.FastRecoveries != 1 || fl.Retransmissions != 1 {
		t.Fatalf("delegated recovery stats: %+v", fl)
	}
	e.OnTimeout(snd)
	if snd.Cwnd() != 1 {
		t.Fatalf("timeout delegation: cwnd = %g", snd.Cwnd())
	}
}
