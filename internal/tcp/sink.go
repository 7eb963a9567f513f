package tcp

import (
	"fmt"
	"sort"

	"muzha/internal/invariant"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// SinkConfig parameterizes a receiver.
type SinkConfig struct {
	FlowID int32
	// Peer is the sender's node address, where ACKs go.
	Peer packet.NodeID
	// SACKEnabled adds up to three SACK blocks to each ACK.
	SACKEnabled bool
	// DelayedAck, when positive, acknowledges every second in-order
	// segment or after this delay, per RFC 1122. Out-of-order segments
	// are always acknowledged immediately (they generate the duplicate
	// ACKs fast retransmit depends on). Zero disables delaying, the
	// setting the paper's simulations use.
	DelayedAck sim.Time
	// Invariants, when non-nil, receives run-time Always checks on the
	// receive-sequence bookkeeping.
	Invariants *invariant.Checker
}

// Sink is the TCP receiver: it accumulates in-order data, queues
// out-of-order segments, and acknowledges every arrival with a cumulative
// ACK carrying optional SACK blocks, the segment's send timestamp, and
// the TCP Muzha router-feedback echo (MRAI + congestion mark) of the data
// packet that triggered the ACK.
type Sink struct {
	sim  *sim.Simulator
	send func(*packet.Packet)
	cfg  SinkConfig

	rcvNxt    int64
	ooo       []packet.SACKBlock // out-of-order ranges above rcvNxt
	delivered int64              // cumulative in-order payload bytes
	acksSent  uint64
	dupSegs   uint64 // segments at or below rcvNxt (spurious rexmits)

	// Delayed-ACK state: the segment awaiting acknowledgement and the
	// timer that flushes it.
	pendingAck *packet.Packet
	ackTimer   *sim.Timer

	invSeq *invariant.Assertion // nil when checking is disabled
}

// NewSink builds a receiver that transmits ACKs through send.
func NewSink(s *sim.Simulator, send func(*packet.Packet), cfg SinkConfig) *Sink {
	k := &Sink{sim: s, send: send, cfg: cfg}
	k.ackTimer = sim.NewTimer(s, k.flushDelayedAck)
	if cfg.Invariants != nil {
		k.invSeq = cfg.Invariants.Always("sink-seq-monotone")
	}
	return k
}

// FlowID implements node.Agent.
func (k *Sink) FlowID() int32 { return k.cfg.FlowID }

// Delivered returns the cumulative in-order bytes received.
func (k *Sink) Delivered() int64 { return k.delivered }

// AcksSent returns the number of ACKs generated.
func (k *Sink) AcksSent() uint64 { return k.acksSent }

// DuplicateSegments returns the count of already-delivered segments
// received again.
func (k *Sink) DuplicateSegments() uint64 { return k.dupSegs }

// Recv implements node.Agent: processes a data segment and replies with
// an ACK.
func (k *Sink) Recv(pkt *packet.Packet) {
	if pkt.TCP == nil || pkt.TCP.IsAck {
		return
	}
	payload := int64(pkt.Size - packet.IPHeaderSize - packet.TCPHeaderSize)
	if payload <= 0 {
		return
	}
	seq := pkt.TCP.Seq
	end := seq + payload
	hadHole := len(k.ooo) > 0
	prevNxt := k.rcvNxt

	switch {
	case end <= k.rcvNxt:
		k.dupSegs++ // entirely old data
	case seq <= k.rcvNxt:
		k.rcvNxt = end
		k.absorbOOO()
	default:
		k.insertOOO(packet.SACKBlock{Start: seq, End: end})
	}
	k.delivered = k.rcvNxt
	if k.rcvNxt >= prevNxt {
		k.invSeq.Checked()
	} else {
		k.invSeq.Fail(fmt.Sprintf("flow %d: rcvnxt regressed %d -> %d", k.cfg.FlowID, prevNxt, k.rcvNxt))
	}
	// Eligible for delaying only for plain in-order arrivals: no hole
	// before or after (a hole fill must be acknowledged immediately so
	// the sender's recovery sees the jump, RFC 1122 4.2.3.2).
	inOrder := seq <= k.rcvNxt && len(k.ooo) == 0 && !hadHole
	if k.cfg.DelayedAck > 0 && inOrder && end > seq {
		if k.pendingAck == nil {
			// First unacknowledged segment: hold the ACK briefly.
			k.pendingAck = pkt
			k.ackTimer.Reset(k.cfg.DelayedAck)
			return
		}
		// Second segment: acknowledge both at once.
		k.flushDelayedAckWith(pkt)
		return
	}
	// Out-of-order, duplicate, or delaying disabled: ACK immediately,
	// flushing any held ACK state first.
	k.pendingAck = nil
	k.ackTimer.Stop()
	k.sendAck(pkt)
}

func (k *Sink) flushDelayedAck() {
	if k.pendingAck == nil {
		return
	}
	pkt := k.pendingAck
	k.pendingAck = nil
	k.sendAck(pkt)
}

func (k *Sink) flushDelayedAckWith(latest *packet.Packet) {
	k.pendingAck = nil
	k.ackTimer.Stop()
	k.sendAck(latest)
}

func (k *Sink) absorbOOO() {
	for len(k.ooo) > 0 && k.ooo[0].Start <= k.rcvNxt {
		if k.ooo[0].End > k.rcvNxt {
			k.rcvNxt = k.ooo[0].End
		}
		k.ooo = k.ooo[1:]
	}
}

func (k *Sink) insertOOO(blk packet.SACKBlock) {
	k.ooo = append(k.ooo, blk)
	sort.Slice(k.ooo, func(i, j int) bool { return k.ooo[i].Start < k.ooo[j].Start })
	merged := k.ooo[:1]
	for _, b := range k.ooo[1:] {
		last := &merged[len(merged)-1]
		if b.Start <= last.End {
			if b.End > last.End {
				last.End = b.End
			}
			continue
		}
		merged = append(merged, b)
	}
	k.ooo = merged
}

func (k *Sink) sendAck(data *packet.Packet) {
	hdr := &packet.TCPHeader{
		FlowID: k.cfg.FlowID,
		Ack:    k.rcvNxt,
		IsAck:  true,
		// TSEcho uses a +1 offset so that zero means "no echo" and a
		// segment sent at virtual time 0 is still measurable.
		TSEcho: data.SendTime + 1,
		Echo: packet.MuzhaEcho{
			MRAI:   data.AVBW,
			Marked: data.CongMarked,
		},
	}
	size := packet.IPHeaderSize + packet.TCPHeaderSize
	if k.cfg.SACKEnabled && len(k.ooo) > 0 {
		nblocks := len(k.ooo)
		if nblocks > 3 {
			nblocks = 3
		}
		hdr.SACK = make([]packet.SACKBlock, nblocks)
		copy(hdr.SACK, k.ooo[:nblocks])
		size += nblocks * packet.SACKBlockBytes
	}
	k.acksSent++
	k.send(&packet.Packet{
		Kind: packet.KindData,
		Dst:  k.cfg.Peer,
		Size: size,
		TTL:  64,
		TCP:  hdr,
	})
}
