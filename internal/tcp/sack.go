package tcp

import (
	"sort"

	"muzha/internal/packet"
)

// Scoreboard tracks which byte ranges the receiver has selectively
// acknowledged. Blocks are kept sorted and merged.
type Scoreboard struct {
	blocks []packet.SACKBlock
}

// Add folds SACK blocks from an ACK into the scoreboard.
func (b *Scoreboard) Add(blocks []packet.SACKBlock) {
	for _, blk := range blocks {
		if blk.End <= blk.Start {
			continue
		}
		b.blocks = append(b.blocks, blk)
	}
	if len(b.blocks) < 2 {
		return
	}
	sort.Slice(b.blocks, func(i, j int) bool { return b.blocks[i].Start < b.blocks[j].Start })
	merged := b.blocks[:1]
	for _, blk := range b.blocks[1:] {
		last := &merged[len(merged)-1]
		if blk.Start <= last.End {
			if blk.End > last.End {
				last.End = blk.End
			}
			continue
		}
		merged = append(merged, blk)
	}
	b.blocks = merged
}

// AdvanceTo discards state below the cumulative ACK point.
func (b *Scoreboard) AdvanceTo(ack int64) {
	out := b.blocks[:0]
	for _, blk := range b.blocks {
		if blk.End <= ack {
			continue
		}
		if blk.Start < ack {
			blk.Start = ack
		}
		out = append(out, blk)
	}
	b.blocks = out
}

// IsSacked reports whether byte seq is covered.
func (b *Scoreboard) IsSacked(seq int64) bool {
	for _, blk := range b.blocks {
		if seq >= blk.Start && seq < blk.End {
			return true
		}
	}
	return false
}

// SackedBytes returns the total selectively acknowledged bytes.
func (b *Scoreboard) SackedBytes() int64 {
	var total int64
	for _, blk := range b.blocks {
		total += blk.End - blk.Start
	}
	return total
}

// NextHole returns the start of the first un-SACKed range at or after
// from and below limit, and whether one exists.
func (b *Scoreboard) NextHole(from, limit int64) (int64, bool) {
	seq := from
	for _, blk := range b.blocks {
		if seq < blk.Start {
			break
		}
		if seq < blk.End {
			seq = blk.End
		}
	}
	if seq < limit {
		return seq, true
	}
	return 0, false
}

// HighestSACKed returns the end of the highest SACKed range (0 if none).
// Only bytes below it are inferable as lost (FACK-style); anything above
// may simply still be in flight.
func (b *Scoreboard) HighestSACKed() int64 {
	if len(b.blocks) == 0 {
		return 0
	}
	return b.blocks[len(b.blocks)-1].End
}

// Reset clears the scoreboard (after a timeout).
func (b *Scoreboard) Reset() { b.blocks = b.blocks[:0] }

// SACK implements a SACK-based sender in the spirit of NS-2's "sack1"
// agent: Reno-style window adjustment with a scoreboard and pipe-based
// transmission during recovery, retransmitting holes before new data.
type SACK struct {
	board    Scoreboard
	rec      Recovery
	pipe     int64 // estimated bytes in flight during recovery
	nextHole int64 // retransmission scan position
}

// NewSACK returns the SACK variant.
func NewSACK() *SACK { return &SACK{} }

// OnNewAck implements Variant.
func (k *SACK) OnNewAck(s *Sender, ack *packet.Packet, acked int64) {
	k.board.Add(ack.TCP.SACK)
	k.board.AdvanceTo(ack.TCP.Ack)
	if !k.rec.Active() {
		slowStartOrAvoid(s)
		return
	}
	if k.rec.Done(ack) {
		s.SetCwnd(s.Ssthresh())
		return
	}
	// Partial ACK: the acknowledged bytes left the pipe.
	k.pipe -= acked
	if k.pipe < 0 {
		k.pipe = 0
	}
	if k.nextHole < ack.TCP.Ack {
		k.nextHole = ack.TCP.Ack
	}
	k.sendHoles(s)
}

// OnDupAck implements Variant.
func (k *SACK) OnDupAck(s *Sender, ack *packet.Packet, n int) {
	k.board.Add(ack.TCP.SACK)
	if k.rec.Active() {
		// Each dup ACK means one segment left the network.
		k.pipe -= int64(s.MSS())
		if k.pipe < 0 {
			k.pipe = 0
		}
		k.sendHoles(s)
		return
	}
	// The fast retransmit resends the first hole, SndUna: SACK blocks
	// lie above the cumulative ACK.
	if !k.rec.Enter(s, n) {
		return
	}
	mss := int64(s.MSS())
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(s.Ssthresh())
	// Pipe: bytes outstanding minus what the receiver holds, and at
	// least the head segment just resent.
	k.pipe = s.FlightBytes() - k.board.SackedBytes()
	if k.pipe < mss {
		k.pipe = mss
	}
	// Fill the pipe with further holes if the window allows.
	k.nextHole = s.SndUna() + mss
	k.sendHoles(s)
}

// sendHoles retransmits inferably lost ranges — un-SACKed bytes below
// the highest SACKed byte — while the pipe has room. Un-SACKed bytes
// above the highest SACK may still be in flight and are left alone.
func (k *SACK) sendHoles(s *Sender) {
	mss := int64(s.MSS())
	limit := k.board.HighestSACKed()
	if limit > k.rec.point {
		limit = k.rec.point
	}
	for k.pipe+mss <= int64(s.Cwnd()*float64(s.MSS())) {
		hole, ok := k.board.NextHole(k.nextHole, limit)
		if !ok {
			return // no holes left; base TrySend covers new data
		}
		s.RetransmitSegment(hole)
		k.nextHole = hole + mss
		k.pipe += mss
	}
}

// OnTimeout implements Variant.
func (k *SACK) OnTimeout(s *Sender) {
	k.rec.Leave()
	k.board.Reset()
	s.SetSsthresh(halfFlight(s))
	s.SetCwnd(1)
}

var _ Variant = (*SACK)(nil)
