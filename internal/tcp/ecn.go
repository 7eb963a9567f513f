package tcp

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// ECNNewReno is TCP NewReno extended with an RFC 3168-style response to
// router congestion marks: a marked ACK halves the window (at most once
// per RTT) without waiting for loss. The thesis positions ECN as the
// binary extreme of the multi-level DRAI (Section 4.6); this variant is
// the sender-side baseline the ablation benches compare Muzha against.
type ECNNewReno struct {
	nr      NewReno
	lastCut sim.Time
}

// NewECNNewReno returns the ECN-reactive NewReno variant.
func NewECNNewReno() *ECNNewReno { return &ECNNewReno{} }

// OnNewAck implements Variant.
func (e *ECNNewReno) OnNewAck(s *Sender, ack *packet.Packet, acked int64) {
	if ack.TCP.Echo.Marked && !e.nr.rec.Active() {
		rtt := s.SRTT()
		if rtt <= 0 {
			rtt = 100 * sim.Millisecond
		}
		if s.Now()-e.lastCut >= rtt {
			// RFC 3168 6.1.2: congestion response as for a single lost
			// packet, but without any retransmission.
			e.lastCut = s.Now()
			s.SetSsthresh(halfFlight(s))
			s.SetCwnd(s.Ssthresh())
			return
		}
	}
	e.nr.OnNewAck(s, ack, acked)
}

// OnDupAck implements Variant.
func (e *ECNNewReno) OnDupAck(s *Sender, ack *packet.Packet, n int) {
	e.nr.OnDupAck(s, ack, n)
}

// OnTimeout implements Variant.
func (e *ECNNewReno) OnTimeout(s *Sender) { e.nr.OnTimeout(s) }

var _ Variant = (*ECNNewReno)(nil)
