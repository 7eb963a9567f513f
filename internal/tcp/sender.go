// Package tcp implements the transport layer of the reproduction: a
// window-based TCP sender core (sequence/ACK bookkeeping, RFC 6298 RTO
// estimation, retransmission, advertised-window flow control, optional
// pacing and delivery-rate sampling) with pluggable congestion-control
// variants — Tahoe, Reno, NewReno, SACK, Vegas, Veno, Westwood, Jersey,
// ECN-NewReno, CUBIC and BBR-lite — plus the receiver sink that generates
// cumulative ACKs, SACK blocks and the TCP Muzha router-feedback echo.
// Loss recovery is written once (recovery.go): every variant detects loss
// through FastRetransmit, and those with fast recovery keep a NewReno
// Recovery, choosing only their own windows. The Muzha variant itself
// lives in internal/core.
package tcp

import (
	"fmt"

	"muzha/internal/invariant"
	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/stats"
)

// Variant supplies the congestion-control reactions of a TCP flavour.
// Implementations mutate the sender through its exported methods.
type Variant interface {
	// OnNewAck fires when the cumulative ACK advanced by acked bytes.
	OnNewAck(s *Sender, ack *packet.Packet, acked int64)
	// OnDupAck fires on each duplicate ACK; n is the consecutive count.
	OnDupAck(s *Sender, ack *packet.Packet, n int)
	// OnTimeout fires on RTO expiry, before the head retransmission.
	OnTimeout(s *Sender)
}

// Binder is implemented by variants that attach to the sender's
// scheduling seams at construction time: NewSender calls Bind once,
// after the core is built, so model-based senders (BBR-lite, future
// Muzha hybrids) can install a pacer and a delivery-rate sampler via
// EnablePacing / EnableRateSampling.
type Binder interface {
	Bind(s *Sender)
}

// SenderConfig parameterizes a TCP sender.
type SenderConfig struct {
	FlowID int32
	Dst    packet.NodeID
	// MSS is the payload bytes per segment (paper: 1460).
	MSS int
	// AdvertisedWindow is the receiver's window in segments (the paper's
	// window_ parameter: 4, 8 or 32).
	AdvertisedWindow int
	// InitialCwnd in segments; defaults to 1.
	InitialCwnd float64
	// InitialSsthresh in segments; defaults to AdvertisedWindow.
	InitialSsthresh float64
	// MaxBytes ends the flow after that much payload is acknowledged;
	// 0 means unbounded (FTP-style, as in the paper).
	MaxBytes int64
	// StampAVBW makes the sender originate packets carrying the Muzha
	// AVBW-S option (set by the Muzha variant's constructor).
	StampAVBW bool
	// Pace enables auto-rate pacing: segments leave on a pacing-rate
	// schedule derived from cwnd/SRTT instead of ack-clocked bursts.
	// Off by default — unpaced senders schedule bit-identically to the
	// historical behaviour, keeping golden event-stream hashes stable.
	// Model-based variants (BBR-lite) install their own pacer through
	// Binder regardless of this knob and drive the rate themselves.
	Pace bool
	// Stats, when non-nil, receives per-flow metrics.
	Stats *stats.Flow
	// Invariants, when non-nil, receives run-time Always checks on the
	// sender's window bookkeeping.
	Invariants *invariant.Checker

	InitialRTO sim.Time // default 1s
	MinRTO     sim.Time // default 200ms
	MaxRTO     sim.Time // default 64s
}

func (c *SenderConfig) setDefaults() error {
	if c.MSS <= 0 {
		return fmt.Errorf("tcp: MSS must be positive, got %d", c.MSS)
	}
	if c.AdvertisedWindow < 1 {
		return fmt.Errorf("tcp: advertised window must be >= 1, got %d", c.AdvertisedWindow)
	}
	if c.InitialCwnd <= 0 {
		c.InitialCwnd = 1
	}
	if c.InitialSsthresh <= 0 {
		c.InitialSsthresh = float64(c.AdvertisedWindow)
	}
	if c.InitialRTO <= 0 {
		c.InitialRTO = sim.Second
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * sim.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 64 * sim.Second
	}
	if c.MaxRTO < c.MinRTO {
		return fmt.Errorf("tcp: MaxRTO %v < MinRTO %v", c.MaxRTO, c.MinRTO)
	}
	return nil
}

// Sender is the variant-independent TCP sender core.
type Sender struct {
	sim  *sim.Simulator
	send func(*packet.Packet)
	cfg  SenderConfig
	v    Variant

	cwnd     float64 // congestion window, segments
	ssthresh float64 // slow-start threshold, segments
	sndUna   int64   // lowest unacknowledged byte
	sndNxt   int64   // next byte to send
	dupAcks  int

	srtt, rttvar sim.Time
	hasRTT       bool
	lastRTT      sim.Time
	rto          sim.Time
	rtoTimer     *sim.Timer

	started  bool
	finished bool
	onDone   func()

	// Scheduling seams (nil = historical ack-clocked behaviour).
	pacer    *Pacer
	sampler  *DeliveryRateSampler
	autoPace bool // derive the pacing rate from cwnd/SRTT on each ACK

	// Run-time invariant handles (nil when checking is disabled).
	invUna    *invariant.Assertion
	invWindow *invariant.Assertion
	invCwnd   *invariant.Assertion
	someRTO   *invariant.Assertion
}

// NewSender builds a sender. send is the node's origination function; v
// supplies the congestion-control variant.
func NewSender(s *sim.Simulator, send func(*packet.Packet), cfg SenderConfig, v Variant) (*Sender, error) {
	if send == nil || v == nil {
		return nil, fmt.Errorf("tcp: send function and variant are required")
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	sn := &Sender{
		sim:      s,
		send:     send,
		cfg:      cfg,
		v:        v,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.InitialSsthresh,
		rto:      cfg.InitialRTO,
	}
	sn.rtoTimer = sim.NewTimer(s, sn.onRTO)
	if cfg.Pace {
		sn.EnablePacing()
		sn.autoPace = true
	}
	if b, ok := v.(Binder); ok {
		b.Bind(sn)
	}
	if cfg.Invariants != nil {
		sn.invUna = cfg.Invariants.Always("tcp-snduna-monotone")
		sn.invWindow = cfg.Invariants.Always("tcp-flight-window")
		sn.invCwnd = cfg.Invariants.Always("tcp-cwnd-floor")
		sn.someRTO = cfg.Invariants.Sometimes("tcp-rto-timeout")
	}
	return sn, nil
}

// checkInvariants evaluates the sender's structural properties after an
// input (ACK or timeout) was processed. prevUna is SndUna before it.
func (s *Sender) checkInvariants(prevUna int64) {
	if s.sndUna >= prevUna && s.sndUna <= s.sndNxt {
		s.invUna.Checked()
	} else {
		s.invUna.Fail(fmt.Sprintf("flow %d: snduna %d (prev %d, sndnxt %d)", s.cfg.FlowID, s.sndUna, prevUna, s.sndNxt))
	}
	if s.cwnd >= 1 {
		s.invCwnd.Checked()
	} else {
		s.invCwnd.Fail(fmt.Sprintf("flow %d: cwnd %g below one segment", s.cfg.FlowID, s.cwnd))
	}
	if s.FlightBytes() <= int64(s.cfg.AdvertisedWindow)*int64(s.cfg.MSS) {
		s.invWindow.Checked()
	} else {
		s.invWindow.Fail(fmt.Sprintf("flow %d: flight %d exceeds advertised window %d segs",
			s.cfg.FlowID, s.FlightBytes(), s.cfg.AdvertisedWindow))
	}
}

// FlowID implements node.Agent.
func (s *Sender) FlowID() int32 { return s.cfg.FlowID }

// Start begins transmitting. Safe to call once.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.cfg.Stats != nil {
		s.cfg.Stats.Start = s.sim.Now()
		s.cfg.Stats.RecordCwnd(s.sim.Now(), s.cwnd)
	}
	s.TrySend()
}

// OnFinish registers a callback invoked when a bounded flow (MaxBytes)
// has every byte acknowledged.
func (s *Sender) OnFinish(fn func()) { s.onDone = fn }

// Finished reports whether a bounded flow completed.
func (s *Sender) Finished() bool { return s.finished }

// --- accessors for Variant implementations ---

// Cwnd returns the congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SetCwnd sets the congestion window (floored at one segment) and
// records the change in the flow trace.
func (s *Sender) SetCwnd(w float64) {
	if w < 1 {
		w = 1
	}
	s.cwnd = w
	if s.cfg.Stats != nil {
		s.cfg.Stats.RecordCwnd(s.sim.Now(), w)
	}
}

// Ssthresh returns the slow-start threshold in segments.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// SetSsthresh sets the slow-start threshold (floored at two segments).
func (s *Sender) SetSsthresh(v float64) {
	if v < 2 {
		v = 2
	}
	s.ssthresh = v
}

// SndUna returns the lowest unacknowledged byte.
func (s *Sender) SndUna() int64 { return s.sndUna }

// SndNxt returns the next byte to be sent.
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// FlightBytes returns the bytes in flight.
func (s *Sender) FlightBytes() int64 { return s.sndNxt - s.sndUna }

// FlightSegments returns the flight size in segments.
func (s *Sender) FlightSegments() float64 {
	return float64(s.FlightBytes()) / float64(s.cfg.MSS)
}

// MSS returns the segment payload size.
func (s *Sender) MSS() int { return s.cfg.MSS }

// Now returns the current virtual time.
func (s *Sender) Now() sim.Time { return s.sim.Now() }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }

// LastRTT returns the most recent RTT sample (0 before the first).
func (s *Sender) LastRTT() sim.Time { return s.lastRTT }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() sim.Time { return s.rto }

// Stats returns the flow recorder (may be nil).
func (s *Sender) Stats() *stats.Flow { return s.cfg.Stats }

// Config returns the sender configuration.
func (s *Sender) Config() SenderConfig { return s.cfg }

// --- scheduling seams ---

// EnablePacing attaches (or returns the existing) pacing engine. The
// pacer's pump is the sender's own send loop, so a closed gate parks
// TrySend on a sim timer until the next release instant.
func (s *Sender) EnablePacing() *Pacer {
	if s.pacer == nil {
		s.pacer = NewPacer(s.sim, s.TrySend)
	}
	return s.pacer
}

// Pacer returns the attached pacing engine (nil = unpaced).
func (s *Sender) Pacer() *Pacer { return s.pacer }

// EnableRateSampling attaches (or returns the existing) delivery-rate
// sampler, fed from the sender's send and ACK paths.
func (s *Sender) EnableRateSampling() *DeliveryRateSampler {
	if s.sampler == nil {
		s.sampler = NewDeliveryRateSampler()
	}
	return s.sampler
}

// RateSampler returns the attached sampler (nil = none).
func (s *Sender) RateSampler() *DeliveryRateSampler { return s.sampler }

// SetAutoPacing toggles the cwnd/SRTT-derived pacing rate. Model-based
// variants that compute their own rate (BBR-lite) switch it off in Bind
// so the core never overwrites their estimate.
func (s *Sender) SetAutoPacing(on bool) { s.autoPace = on }

// updateAutoPacingRate refreshes the cwnd/SRTT-derived rate after the
// variant adjusted the window. The gain mirrors Linux: 2x in slow start
// (the window doubles per RTT), 1.2x in congestion avoidance.
func (s *Sender) updateAutoPacingRate() {
	if !s.autoPace || s.pacer == nil || s.srtt <= 0 {
		return
	}
	gain := 1.2
	if s.cwnd < s.ssthresh {
		gain = 2.0
	}
	s.pacer.SetRate(gain * s.cwnd * float64(s.cfg.MSS) / s.srtt.Seconds())
}

// --- data path ---

// TrySend transmits as many new full segments as the effective window
// (min of cwnd and the advertised window) allows.
func (s *Sender) TrySend() {
	if !s.started || s.finished {
		return
	}
	wnd := s.cwnd
	if aw := float64(s.cfg.AdvertisedWindow); aw < wnd {
		wnd = aw
	}
	limit := s.sndUna + int64(wnd*float64(s.cfg.MSS))
	for {
		size := s.cfg.MSS
		if s.cfg.MaxBytes > 0 {
			remaining := s.cfg.MaxBytes - s.sndNxt
			if remaining <= 0 {
				// Out of data with window headroom: delivery samples
				// taken from here on under-estimate the path. Only
				// marked while something is outstanding — the phase
				// ends when the flight at mark time is delivered, so
				// a mark with no flight never clears.
				if s.sampler != nil && s.sndNxt < limit && s.FlightBytes() > 0 {
					s.sampler.OnAppLimited(s.sndNxt)
				}
				return
			}
			if int64(size) > remaining {
				size = int(remaining)
			}
		}
		if s.sndNxt+int64(size) > limit {
			return
		}
		if s.pacer != nil {
			if wait := s.pacer.HoldFor(s.sim.Now()); wait > 0 {
				s.pacer.arm(wait)
				return
			}
		}
		s.emit(s.sndNxt, size, false)
		s.sndNxt += int64(size)
	}
}

// RetransmitSegment resends one MSS starting at seq and counts it as a
// retransmission.
func (s *Sender) RetransmitSegment(seq int64) {
	size := s.cfg.MSS
	if s.cfg.MaxBytes > 0 && seq+int64(size) > s.cfg.MaxBytes {
		size = int(s.cfg.MaxBytes - seq)
		if size <= 0 {
			return
		}
	}
	if s.cfg.Stats != nil {
		s.cfg.Stats.Retransmissions++
	}
	s.emit(seq, size, true)
}

func (s *Sender) emit(seq int64, size int, retx bool) {
	if s.sampler != nil && !retx {
		s.sampler.OnSend(seq+int64(size), s.sim.Now(), s.FlightBytes() == 0)
	}
	pkt := &packet.Packet{
		Kind: packet.KindData,
		Dst:  s.cfg.Dst,
		Size: size + packet.IPHeaderSize + packet.TCPHeaderSize,
		TTL:  64,
		TCP: &packet.TCPHeader{
			FlowID: s.cfg.FlowID,
			Seq:    seq,
		},
		SendTime: int64(s.sim.Now()),
	}
	if s.cfg.StampAVBW {
		pkt.AVBW = packet.AVBWMax
	}
	if s.cfg.Stats != nil {
		s.cfg.Stats.SegmentsSent++
	}
	s.send(pkt)
	if s.pacer != nil {
		s.pacer.OnSend(s.sim.Now(), pkt.Size)
	}
	if !s.rtoTimer.Pending() {
		s.rtoTimer.Reset(s.rto)
	}
}

// Recv implements node.Agent: processes an arriving ACK.
func (s *Sender) Recv(pkt *packet.Packet) {
	if pkt.TCP == nil || !pkt.TCP.IsAck || s.finished {
		return
	}
	ack := pkt.TCP.Ack
	if ack > s.sndNxt && s.pacer != nil {
		// An ACK for bytes never sent (a sink whose payload accounting
		// includes routing headers can over-ack; see the DSR chaos
		// scenarios). The historical unpaced path tolerates it — the
		// ack-clocked TrySend immediately resynchronizes SndNxt past
		// SndUna, behaviour pinned by the golden fixtures — but a paced
		// sender defers that catch-up on the gate, which would strand
		// SndUna beyond SndNxt, so it drops the invalid ACK instead.
		return
	}
	prevUna := s.sndUna
	defer func() { s.checkInvariants(prevUna) }()
	switch {
	case ack > s.sndUna:
		acked := ack - s.sndUna
		s.sndUna = ack
		s.dupAcks = 0
		if pkt.TCP.TSEcho > 0 {
			// TSEcho carries the data segment's send time plus one
			// (zero meaning "no echo"); see Sink.sendAck.
			s.sampleRTT(s.sim.Now() - sim.Time(pkt.TCP.TSEcho-1))
		}
		if s.cfg.Stats != nil {
			s.cfg.Stats.AddAcked(s.sim.Now(), acked)
		}
		if s.sampler != nil {
			s.sampler.OnAck(ack, s.sim.Now(), acked)
		}
		s.v.OnNewAck(s, pkt, acked)
		s.updateAutoPacingRate()
		if s.sndUna >= s.sndNxt {
			s.rtoTimer.Stop()
		} else {
			s.rtoTimer.Reset(s.rto)
		}
		s.TrySend()
		if s.cfg.MaxBytes > 0 && s.sndUna >= s.cfg.MaxBytes {
			s.finished = true
			s.rtoTimer.Stop()
			if s.pacer != nil {
				s.pacer.Stop()
			}
			if s.onDone != nil {
				s.onDone()
			}
		}
	case ack == s.sndUna && s.FlightBytes() > 0:
		s.dupAcks++
		s.v.OnDupAck(s, pkt, s.dupAcks)
		s.TrySend()
	}
}

func (s *Sender) onRTO() {
	if s.FlightBytes() <= 0 || s.finished {
		return
	}
	if s.cfg.Stats != nil {
		s.cfg.Stats.Timeouts++
	}
	s.someRTO.Reach()
	s.dupAcks = 0
	s.v.OnTimeout(s)
	s.updateAutoPacingRate()
	// Karn backoff; the backed-off RTO persists until the next sample.
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.RetransmitSegment(s.sndUna)
	s.rtoTimer.Reset(s.rto)
	s.checkInvariants(s.sndUna)
}

// sampleRTT folds one measurement into the RFC 6298 estimator.
func (s *Sender) sampleRTT(r sim.Time) {
	if r <= 0 {
		return
	}
	s.lastRTT = r
	if !s.hasRTT {
		s.hasRTT = true
		s.srtt = r
		s.rttvar = r / 2
	} else {
		diff := s.srtt - r
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + r) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	if rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	s.rto = rto
}
