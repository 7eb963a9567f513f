package tcp

import "muzha/internal/packet"

// slowStartOrAvoid applies the classical window growth: exponential below
// ssthresh, linear (1/cwnd per ACK) above.
func slowStartOrAvoid(s *Sender) {
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + 1)
	} else {
		s.SetCwnd(s.Cwnd() + 1/s.Cwnd())
	}
}

// halfFlight returns max(flight/2, 2) segments, the classical multiplicative
// decrease target.
func halfFlight(s *Sender) float64 {
	half := s.FlightSegments() / 2
	if half < 2 {
		half = 2
	}
	return half
}

// deflatePartial shrinks the window by the bytes a partial ACK
// acknowledged and adds one segment back (RFC 6582 section 3.2 step 3).
func deflatePartial(s *Sender, acked int64) {
	s.SetCwnd(s.Cwnd() - float64(acked)/float64(s.MSS()) + 1)
}

// Tahoe is the original congestion control: slow start, congestion
// avoidance and fast retransmit, with every loss resetting the window to
// one segment.
type Tahoe struct{}

// NewTahoe returns the Tahoe variant.
func NewTahoe() *Tahoe { return &Tahoe{} }

// OnNewAck implements Variant.
func (*Tahoe) OnNewAck(s *Sender, _ *packet.Packet, _ int64) { slowStartOrAvoid(s) }

// OnDupAck implements Variant.
func (*Tahoe) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	if !FastRetransmit(s, n) {
		return
	}
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(1) // Tahoe re-enters slow start after fast retransmit
}

// OnTimeout implements Variant.
func (*Tahoe) OnTimeout(s *Sender) {
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(1)
}

// Reno adds fast recovery: after a fast retransmit the window is halved
// (not collapsed) and inflated by one segment per further duplicate ACK
// until a new ACK arrives.
type Reno struct {
	rec Recovery
}

// NewReno2 returns the Reno variant. (The name avoids colliding with the
// NewReno type below.)
func NewReno2() *Reno { return &Reno{} }

// OnNewAck implements Variant.
func (r *Reno) OnNewAck(s *Sender, _ *packet.Packet, _ int64) {
	if r.rec.Active() {
		// Any new ACK ends Reno recovery: deflate to ssthresh.
		r.rec.Leave()
		s.SetCwnd(s.Ssthresh())
		return
	}
	slowStartOrAvoid(s)
}

// OnDupAck implements Variant.
func (r *Reno) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	if !r.rec.OnDupAck(s, n) {
		return
	}
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(s.Ssthresh() + 3)
}

// OnTimeout implements Variant.
func (r *Reno) OnTimeout(s *Sender) {
	r.rec.Leave()
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(1)
}

// NewReno refines Reno's fast recovery to survive multiple losses in one
// window (RFC 3782): partial ACKs retransmit the next hole and keep the
// sender in recovery until the recovery point is reached.
type NewReno struct {
	rec Recovery
}

// NewNewReno returns the NewReno variant.
func NewNewReno() *NewReno { return &NewReno{} }

// OnNewAck implements Variant.
func (n *NewReno) OnNewAck(s *Sender, ack *packet.Packet, acked int64) {
	if !n.rec.Active() {
		slowStartOrAvoid(s)
		return
	}
	if n.rec.OnNewAck(s, ack) {
		// Full acknowledgement: recovery complete, deflate.
		s.SetCwnd(s.Ssthresh())
		return
	}
	// Partial acknowledgement: the head was resent; deflate and stay
	// in recovery (RFC 3782 step 5).
	deflatePartial(s, acked)
}

// OnDupAck implements Variant.
func (n *NewReno) OnDupAck(s *Sender, _ *packet.Packet, count int) {
	if !n.rec.OnDupAck(s, count) {
		return
	}
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(s.Ssthresh() + 3)
}

// OnTimeout implements Variant.
func (n *NewReno) OnTimeout(s *Sender) {
	n.rec.Leave()
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(1)
}

var (
	_ Variant = (*Tahoe)(nil)
	_ Variant = (*Reno)(nil)
	_ Variant = (*NewReno)(nil)
)
