package tcp

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Vegas implements TCP Vegas congestion avoidance (Brakmo & Peterson):
// the expected/actual throughput difference, measured once per RTT
// against the minimum observed base RTT, drives +1/hold/-1 window
// decisions between the alpha and beta thresholds. Slow start doubles the
// window only every other RTT and exits when the backlog estimate passes
// gamma.
type Vegas struct {
	// Alpha, Beta, Gamma are backlog thresholds in segments; the
	// classical values are 1, 3 and 1.
	Alpha, Beta, Gamma float64

	baseRTT    sim.Time
	slowStart  bool
	grewLast   bool // slow start grows every other RTT
	lastAdjust sim.Time
	rec        Recovery
}

// NewVegas returns a Vegas variant with the classical 1/3/1 thresholds.
func NewVegas() *Vegas {
	return &Vegas{Alpha: 1, Beta: 3, Gamma: 1, slowStart: true}
}

// OnNewAck implements Variant.
func (v *Vegas) OnNewAck(s *Sender, ack *packet.Packet, _ int64) {
	rtt := s.LastRTT()
	if rtt <= 0 {
		return
	}
	if v.baseRTT == 0 || rtt < v.baseRTT {
		v.baseRTT = rtt
	}
	// A full ACK ends recovery; a partial one neither resends nor
	// changes the window.
	v.rec.Done(ack)

	// One window decision per RTT.
	if s.Now()-v.lastAdjust < rtt {
		return
	}
	v.lastAdjust = s.Now()

	// Backlog estimate: diff = (expected - actual) * baseRTT, in
	// segments queued inside the network.
	cwnd := s.Cwnd()
	expected := cwnd / v.baseRTT.Seconds()
	actual := cwnd / rtt.Seconds()
	diff := (expected - actual) * v.baseRTT.Seconds()

	if v.slowStart {
		if diff > v.Gamma {
			// Leaving slow start: back off by 1/8 so the queue drains
			// (Brakmo & Peterson section 4.2).
			v.slowStart = false
			s.SetSsthresh(cwnd)
			s.SetCwnd(cwnd * 7 / 8)
			return
		}
		if v.grewLast {
			v.grewLast = false
		} else {
			v.grewLast = true
			s.SetCwnd(cwnd * 2)
		}
		return
	}

	switch {
	case diff < v.Alpha:
		s.SetCwnd(cwnd + 1)
	case diff > v.Beta:
		w := cwnd - 1
		if w < 2 {
			w = 2
		}
		s.SetCwnd(w)
	}
}

// OnDupAck implements Variant.
func (v *Vegas) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	// No window inflation during recovery.
	if !v.rec.Enter(s, n) {
		return
	}
	// Vegas cuts by a quarter on dup-ACK loss, not a half.
	w := s.Cwnd() * 3 / 4
	if w < 2 {
		w = 2
	}
	s.SetSsthresh(w)
	s.SetCwnd(w)
}

// OnTimeout implements Variant.
func (v *Vegas) OnTimeout(s *Sender) {
	v.rec.Leave()
	v.slowStart = true
	v.grewLast = false
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(2)
}

var _ Variant = (*Vegas)(nil)
