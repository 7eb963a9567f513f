package tcp

import "muzha/internal/packet"

// DupThresh is the duplicate-ACK count that signals a lost segment
// (RFC 5681 section 3.2).
const DupThresh = 3

// FastRetransmit is the loss signal every variant shares: on the
// DupThresh-th consecutive duplicate ACK it counts a fast recovery,
// resends the head segment and reports true. The variant chooses its
// windows afterwards; RetransmitSegment moves neither SndUna, SndNxt nor
// cwnd, so it sees the state the duplicate ACK left.
func FastRetransmit(s *Sender, dups int) bool {
	if dups != DupThresh {
		return false
	}
	if s.Stats() != nil {
		s.Stats().FastRecoveries++
	}
	s.RetransmitSegment(s.SndUna())
	return true
}

// Recovery is NewReno's fast-recovery state (RFC 6582): entered by a
// fast retransmit, it remembers the highest sequence outstanding at that
// moment (the recovery point) and ends when an ACK reaches it. Variants
// embed one and keep only the windows they choose on entry and exit.
type Recovery struct {
	active bool
	point  int64
}

// Active reports whether recovery is in progress.
func (r *Recovery) Active() bool { return r.active }

// Leave abandons recovery (a retransmission timeout, or Reno's exit on
// any new ACK).
func (r *Recovery) Leave() { r.active = false }

// Enter starts recovery on the DupThresh-th duplicate ACK, through
// FastRetransmit, and reports whether it did. It does nothing while
// recovery is already active.
func (r *Recovery) Enter(s *Sender, dups int) bool {
	if r.active || !FastRetransmit(s, dups) {
		return false
	}
	r.active = true
	r.point = s.SndNxt()
	return true
}

// OnDupAck is the usual duplicate-ACK reaction: during recovery each
// further duplicate inflates the window by one segment (it left the
// network); otherwise it tries to Enter. It reports whether recovery
// was entered.
func (r *Recovery) OnDupAck(s *Sender, dups int) bool {
	if r.active {
		s.SetCwnd(s.Cwnd() + 1)
		return false
	}
	return r.Enter(s, dups)
}

// Done reports whether ack is a full acknowledgement — at or past the
// recovery point — during recovery, and if so ends recovery.
func (r *Recovery) Done(ack *packet.Packet) bool {
	if !r.active || ack.TCP.Ack < r.point {
		return false
	}
	r.active = false
	return true
}

// OnNewAck is the usual new-ACK reaction during recovery (call it only
// while Active): a full acknowledgement ends recovery and returns true,
// so the variant sets its exit window; a partial one resends the head of
// the next hole, which starts at the new SndUna, and stays in recovery.
func (r *Recovery) OnNewAck(s *Sender, ack *packet.Packet) bool {
	if r.Done(ack) {
		return true
	}
	s.RetransmitSegment(s.SndUna())
	return false
}
