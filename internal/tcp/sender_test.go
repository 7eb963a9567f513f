package tcp

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/stats"
)

// wire captures transmitted segments so tests can script the peer.
type wire struct {
	sent []*packet.Packet
}

func (w *wire) send(p *packet.Packet) { w.sent = append(w.sent, p) }

func (w *wire) take() []*packet.Packet {
	out := w.sent
	w.sent = nil
	return out
}

func testSender(t *testing.T, v Variant, mutate func(*SenderConfig)) (*sim.Simulator, *Sender, *wire, *stats.Flow) {
	t.Helper()
	s := sim.New(1)
	w := &wire{}
	fl := stats.NewFlow(1, "test", 0)
	cfg := SenderConfig{
		FlowID:           1,
		Dst:              4,
		MSS:              1000,
		AdvertisedWindow: 32,
		Stats:            fl,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	snd, err := NewSender(s, w.send, cfg, v)
	if err != nil {
		t.Fatal(err)
	}
	return s, snd, w, fl
}

// ackFor builds the ACK a sink would generate for cumulative ack number
// n, echoing the acknowledged segment's send time (pass a negative
// sendTime for "no echo").
func ackFor(n int64, sendTime int64) *packet.Packet {
	tsEcho := int64(0)
	if sendTime >= 0 {
		tsEcho = sendTime + 1
	}
	return &packet.Packet{
		Kind: packet.KindData,
		TCP:  &packet.TCPHeader{FlowID: 1, Ack: n, IsAck: true, TSEcho: tsEcho},
	}
}

// ackAll acknowledges every captured segment individually, in sequence
// order (a sink with delayed ACKs off generates one ACK per segment), and
// returns the final cumulative ack point.
func ackAll(snd *Sender, w *wire, mss int64) int64 {
	segs := w.take()
	var high int64
	for _, p := range segs {
		end := p.TCP.Seq + mss
		if end > high {
			high = end
		}
		snd.Recv(ackFor(end, -1))
	}
	return high
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	s := sim.New(1)
	w := &wire{}
	if _, err := NewSender(s, nil, SenderConfig{MSS: 1000, AdvertisedWindow: 4}, NewNewReno()); err == nil {
		t.Fatal("nil send accepted")
	}
	if _, err := NewSender(s, w.send, SenderConfig{MSS: 0, AdvertisedWindow: 4}, NewNewReno()); err == nil {
		t.Fatal("zero MSS accepted")
	}
	if _, err := NewSender(s, w.send, SenderConfig{MSS: 1000, AdvertisedWindow: 0}, NewNewReno()); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewSender(s, w.send, SenderConfig{MSS: 1000, AdvertisedWindow: 4, MinRTO: sim.Second, MaxRTO: sim.Millisecond}, NewNewReno()); err == nil {
		t.Fatal("MaxRTO < MinRTO accepted")
	}
	snd, err := NewSender(s, w.send, SenderConfig{MSS: 1000, AdvertisedWindow: 4}, NewNewReno())
	if err != nil {
		t.Fatal(err)
	}
	if snd.Cwnd() != 1 || snd.Ssthresh() != 4 {
		t.Fatalf("defaults: cwnd=%g ssthresh=%g", snd.Cwnd(), snd.Ssthresh())
	}
}

func TestInitialWindowSendsOneSegment(t *testing.T) {
	_, snd, w, _ := testSender(t, NewNewReno(), nil)
	snd.Start()
	if len(w.sent) != 1 {
		t.Fatalf("sent %d segments with cwnd 1, want 1", len(w.sent))
	}
	p := w.sent[0]
	if p.TCP.Seq != 0 || p.Size != 1000+40 {
		t.Fatalf("first segment = %+v", p.TCP)
	}
	if p.AVBW != 0 {
		t.Fatal("non-Muzha sender stamped AVBW")
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	_, snd, w, _ := testSender(t, NewNewReno(), nil)
	snd.Start()
	wantCwnd := []float64{2, 4, 8, 16}
	for _, want := range wantCwnd {
		ackAll(snd, w, 1000)
		if snd.Cwnd() != want {
			t.Fatalf("cwnd = %g, want %g", snd.Cwnd(), want)
		}
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	_, snd, w, _ := testSender(t, NewNewReno(), func(c *SenderConfig) {
		c.InitialCwnd = 8
		c.InitialSsthresh = 4 // already above threshold: CA from the start
	})
	snd.Start()
	before := snd.Cwnd()
	segs := w.take()
	// Ack one segment: growth must be 1/cwnd, not 1.
	snd.Recv(ackFor(segs[0].TCP.Seq+1000, 0))
	growth := snd.Cwnd() - before
	if growth <= 0 || growth > 1.0/7 {
		t.Fatalf("CA growth per ACK = %g, want ~1/cwnd", growth)
	}
}

func TestAdvertisedWindowCapsFlight(t *testing.T) {
	_, snd, w, _ := testSender(t, NewNewReno(), func(c *SenderConfig) {
		c.InitialCwnd = 100
		c.AdvertisedWindow = 4
	})
	snd.Start()
	if len(w.sent) != 4 {
		t.Fatalf("sent %d segments, advertised window is 4", len(w.sent))
	}
}

func TestDupAcksTriggerFastRetransmitAtThree(t *testing.T) {
	_, snd, w, fl := testSender(t, NewNewReno(), func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.take()

	snd.Recv(ackFor(0, 0)) // dup 1 (flight exists, ack doesn't advance)
	snd.Recv(ackFor(0, 0)) // dup 2
	if len(w.take()) != 0 {
		t.Fatal("retransmitted before third dup ACK")
	}
	snd.Recv(ackFor(0, 0)) // dup 3
	retx := w.take()
	if len(retx) == 0 || retx[0].TCP.Seq != 0 {
		t.Fatalf("no head retransmission on third dup ACK: %v", retx)
	}
	if fl.Retransmissions != 1 || fl.FastRecoveries != 1 {
		t.Fatalf("stats: %d rexmit, %d recoveries", fl.Retransmissions, fl.FastRecoveries)
	}
	// ssthresh = flight/2 = 4; cwnd = ssthresh + 3.
	if snd.Ssthresh() != 4 || snd.Cwnd() != 7 {
		t.Fatalf("after entry: ssthresh=%g cwnd=%g", snd.Ssthresh(), snd.Cwnd())
	}
}

func TestRenoExitsRecoveryOnFirstNewAck(t *testing.T) {
	_, snd, w, _ := testSender(t, NewReno2(), func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.take()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(0, 0))
	}
	// Partial progress: Reno deflates immediately.
	snd.Recv(ackFor(1000, 0))
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatalf("Reno did not deflate: cwnd=%g ssthresh=%g", snd.Cwnd(), snd.Ssthresh())
	}
}

func TestNewRenoPartialAckRetransmitsHole(t *testing.T) {
	_, snd, w, fl := testSender(t, NewNewReno(), func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.take() // 8 segments, seqs 0..7000

	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(0, 0))
	}
	w.take() // head retransmission

	// Partial ACK to 1000 (recovery point is 8000): must retransmit the
	// hole at 1000 and stay in recovery.
	snd.Recv(ackFor(1000, 0))
	out := w.take()
	foundHole := false
	for _, p := range out {
		if p.TCP.Seq == 1000 {
			foundHole = true
		}
	}
	if !foundHole {
		t.Fatalf("partial ACK did not retransmit hole: %v", out)
	}
	if fl.Retransmissions != 2 {
		t.Fatalf("retransmissions = %d, want 2", fl.Retransmissions)
	}

	// Full ACK past the recovery point exits and deflates to ssthresh.
	snd.Recv(ackFor(8000, 0))
	if snd.Cwnd() != snd.Ssthresh() {
		t.Fatalf("full ACK: cwnd=%g, want ssthresh=%g", snd.Cwnd(), snd.Ssthresh())
	}
	// Next new ACK grows normally again.
	segs := w.take()
	if len(segs) == 0 {
		t.Fatal("no new data after recovery")
	}
}

func TestTahoeCollapsesToOne(t *testing.T) {
	_, snd, w, _ := testSender(t, NewTahoe(), func(c *SenderConfig) { c.InitialCwnd = 8 })
	snd.Start()
	w.take()
	for i := 0; i < 3; i++ {
		snd.Recv(ackFor(0, 0))
	}
	if snd.Cwnd() != 1 {
		t.Fatalf("Tahoe cwnd after fast retransmit = %g, want 1", snd.Cwnd())
	}
	if snd.Ssthresh() != 4 {
		t.Fatalf("Tahoe ssthresh = %g, want 4", snd.Ssthresh())
	}
}

func TestTimeoutRetransmitsAndBacksOff(t *testing.T) {
	s, snd, w, fl := testSender(t, NewNewReno(), func(c *SenderConfig) {
		c.InitialRTO = 100 * sim.Millisecond
	})
	snd.Start()
	w.take()
	s.Run(150 * sim.Millisecond) // RTO fires

	out := w.take()
	if len(out) != 1 || out[0].TCP.Seq != 0 {
		t.Fatalf("timeout retransmission: %v", out)
	}
	if fl.Timeouts != 1 || fl.Retransmissions != 1 {
		t.Fatalf("stats after timeout: %+v", fl)
	}
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd after timeout = %g, want 1", snd.Cwnd())
	}
	if snd.RTO() != 200*sim.Millisecond {
		t.Fatalf("RTO after backoff = %v, want 200ms", snd.RTO())
	}

	// Second expiry doubles again.
	s.Run(400 * sim.Millisecond)
	if fl.Timeouts != 2 {
		t.Fatalf("second timeout missing: %+v", fl)
	}
	if snd.RTO() != 400*sim.Millisecond {
		t.Fatalf("RTO = %v, want 400ms", snd.RTO())
	}
}

func TestRTTSamplingFromTimestampEcho(t *testing.T) {
	s, snd, w, _ := testSender(t, NewNewReno(), nil)
	snd.Start()
	seg := w.take()[0]
	s.Run(50 * sim.Millisecond)
	snd.Recv(ackFor(1000, seg.SendTime))
	if snd.SRTT() != 50*sim.Millisecond {
		t.Fatalf("SRTT = %v, want 50ms", snd.SRTT())
	}
	if snd.LastRTT() != 50*sim.Millisecond {
		t.Fatalf("LastRTT = %v", snd.LastRTT())
	}
	// RTO = srtt + 4*rttvar = 50 + 100 = 150ms < MinRTO 200ms -> clamped.
	if snd.RTO() != 200*sim.Millisecond {
		t.Fatalf("RTO = %v, want clamped 200ms", snd.RTO())
	}
}

func TestMaxBytesFinishes(t *testing.T) {
	_, snd, w, _ := testSender(t, NewNewReno(), func(c *SenderConfig) {
		c.MaxBytes = 2500 // 2.5 segments
		c.InitialCwnd = 10
	})
	done := false
	snd.OnFinish(func() { done = true })
	snd.Start()
	segs := w.take()
	if len(segs) != 3 {
		t.Fatalf("sent %d segments for 2500 bytes, want 3", len(segs))
	}
	if last := segs[2]; last.Size != 500+40 {
		t.Fatalf("final short segment size = %d", last.Size)
	}
	snd.Recv(ackFor(2500, 0))
	if !done || !snd.Finished() {
		t.Fatal("bounded flow did not finish")
	}
	// Further ACKs are ignored.
	snd.Recv(ackFor(2500, 0))
}

func TestDupAckWithoutFlightIgnored(t *testing.T) {
	_, snd, w, _ := testSender(t, NewNewReno(), func(c *SenderConfig) { c.MaxBytes = 1000 })
	snd.Start()
	w.take()
	snd.Recv(ackFor(1000, 0)) // finishes the flow, flight = 0
	snd.Recv(ackFor(1000, 0))
	snd.Recv(ackFor(1000, 0))
	snd.Recv(ackFor(1000, 0))
	if len(w.take()) != 0 {
		t.Fatal("dup ACKs without outstanding data caused transmissions")
	}
}

func TestCwndTraceRecorded(t *testing.T) {
	_, snd, w, fl := testSender(t, NewNewReno(), nil)
	snd.Start()
	ackAll(snd, w, 1000)
	ackAll(snd, w, 1000)
	trace := fl.CwndTrace()
	if len(trace) < 3 {
		t.Fatalf("cwnd trace too short: %d samples", len(trace))
	}
	if trace[len(trace)-1].V != 4 {
		t.Fatalf("final trace sample = %g, want 4", trace[len(trace)-1].V)
	}
}
