package tcp

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Veno implements TCP Veno (Fu & Liew, JSAC 2003), the end-to-end
// counterpart of Muzha's random-loss discrimination: a Vegas-style
// backlog estimate N = (cwnd/baseRTT - cwnd/RTT) * baseRTT classifies the
// connection state. Losses striking while N < Beta are deemed random and
// cut the window by only 1/5; losses in the congestive region halve it.
// During congestion avoidance the window grows at the normal rate while
// non-congestive and at half rate once the backlog passes Beta.
type Veno struct {
	// Beta is the backlog threshold in segments (paper value: 3).
	Beta float64

	baseRTT sim.Time
	rec     Recovery
	holdOne bool // skip every other increment when backlog is high
}

// NewVeno returns a Veno variant with the paper's Beta of 3 segments.
func NewVeno() *Veno { return &Veno{Beta: 3} }

// backlog returns the Vegas-style queue estimate in segments; negative
// when no RTT information is available yet.
func (v *Veno) backlog(s *Sender) float64 {
	rtt := s.LastRTT()
	if rtt <= 0 || v.baseRTT <= 0 {
		return -1
	}
	cwnd := s.Cwnd()
	expected := cwnd / v.baseRTT.Seconds()
	actual := cwnd / rtt.Seconds()
	return (expected - actual) * v.baseRTT.Seconds()
}

// OnNewAck implements Variant.
func (v *Veno) OnNewAck(s *Sender, ack *packet.Packet, _ int64) {
	if rtt := s.LastRTT(); rtt > 0 && (v.baseRTT == 0 || rtt < v.baseRTT) {
		v.baseRTT = rtt
	}
	if v.rec.Active() {
		// NewReno-style recovery, without partial-ACK deflation.
		if v.rec.OnNewAck(s, ack) {
			s.SetCwnd(s.Ssthresh())
		}
		return
	}
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + 1)
		return
	}
	// Congestion avoidance: halve the growth rate once the estimated
	// backlog exceeds Beta (stay longer at the sweet spot).
	if n := v.backlog(s); n >= v.Beta {
		if v.holdOne {
			v.holdOne = false
			return
		}
		v.holdOne = true
	}
	s.SetCwnd(s.Cwnd() + 1/s.Cwnd())
}

// OnDupAck implements Variant.
func (v *Veno) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	if !v.rec.OnDupAck(s, n) {
		return
	}
	if b := v.backlog(s); b >= 0 && b < v.Beta {
		// Random loss: mild 1/5 reduction (Veno's key move).
		s.SetSsthresh(s.Cwnd() * 4 / 5)
	} else {
		// Congestive loss (or no estimate): classic halving.
		s.SetSsthresh(halfFlight(s))
	}
	s.SetCwnd(s.Ssthresh() + 3)
}

// OnTimeout implements Variant.
func (v *Veno) OnTimeout(s *Sender) {
	v.rec.Leave()
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(1)
}

var _ Variant = (*Veno)(nil)
