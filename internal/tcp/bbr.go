package tcp

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// BBR-lite gains and filter windows, after the BBR v1 draft
// (draft-cardwell-iccrg-bbr-congestion-control).
const (
	// bbrHighGain is 2/ln(2): the pacing gain that doubles the sending
	// rate every round while the bandwidth estimate doubles too.
	bbrHighGain = 2.885
	// bbrDrainGain empties the queue built during startup.
	bbrDrainGain = 1 / bbrHighGain
	// bbrCwndGain bounds the window at 2x the estimated BDP outside
	// startup.
	bbrCwndGain = 2.0
	// bbrMinCwnd keeps at least four segments in flight so the ACK
	// clock and the delivery sampler never stall.
	bbrMinCwnd = 4.0
	// bbrFullBwThresh/bbrFullBwRounds: startup exits when the bandwidth
	// estimate grew less than 25% across three consecutive rounds.
	bbrFullBwThresh = 1.25
	bbrFullBwRounds = 3
	// bbrBwFilterRounds is the max-bandwidth filter window.
	bbrBwFilterRounds = 10
	// bbrMinRTTExpiry ages out the min-RTT estimate.
	bbrMinRTTExpiry = 10 * sim.Second
)

// bbrCycleGains is the probe-bw pacing-gain cycle: probe above the
// estimate for one phase, drain the probe's queue, then cruise.
var bbrCycleGains = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
)

func (st bbrState) String() string {
	switch st {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	default:
		return "probe-bw"
	}
}

// bbrBwSample is one entry of the windowed max-bandwidth filter.
type bbrBwSample struct {
	round int
	bw    float64 // bytes/s
}

// BBRLite is a model-based sender: instead of reacting to loss it
// estimates the path's bottleneck bandwidth (windowed max of delivery
// -rate samples) and round-trip propagation delay (windowed min RTT),
// paces at a gain times the bandwidth estimate and caps the window
// near the estimated BDP. The startup/drain/probe-bw state machine is
// BBR v1 with probe-rtt elided. It binds the sender's pacing and
// rate-sampling seams at construction (Binder).
type BBRLite struct {
	pacer   *Pacer
	sampler *DeliveryRateSampler

	state bbrState

	// bwFilter is a monotonic max-deque over the last
	// bbrBwFilterRounds rounds: entries decrease in bw from the front,
	// so the front is the windowed maximum and maintenance is O(1)
	// amortized with bounded memory.
	bwFilter []bbrBwSample

	minRTT   sim.Time
	minRTTAt sim.Time

	roundCount         int
	nextRoundDelivered int64

	fullBw      float64
	fullBwCount int

	cycleIdx   int
	cycleStamp sim.Time
}

// NewBBRLite returns the BBR-lite variant. The returned value
// implements Binder: NewSender attaches the pacer and delivery-rate
// sampler automatically.
func NewBBRLite() *BBRLite { return &BBRLite{} }

// Bind implements Binder: install the pacing engine and the sampler,
// and take over the pacing rate from the cwnd/SRTT auto-rate.
func (b *BBRLite) Bind(s *Sender) {
	b.pacer = s.EnablePacing()
	b.sampler = s.EnableRateSampling()
	s.SetAutoPacing(false)
}

// BtlBw returns the windowed max-bandwidth estimate in bytes/s.
func (b *BBRLite) BtlBw() float64 {
	if len(b.bwFilter) == 0 {
		return 0
	}
	return b.bwFilter[0].bw
}

// State returns the current state name, for tests and traces.
func (b *BBRLite) State() string { return b.state.String() }

// PacingGain returns the gain currently applied to BtlBw.
func (b *BBRLite) PacingGain() float64 {
	switch b.state {
	case bbrStartup:
		return bbrHighGain
	case bbrDrain:
		return bbrDrainGain
	default:
		return bbrCycleGains[b.cycleIdx]
	}
}

// CycleIndex returns the probe-bw gain-cycle phase, for tests.
func (b *BBRLite) CycleIndex() int { return b.cycleIdx }

// bdpSegments returns the estimated bandwidth-delay product in
// segments (0 while either filter is empty).
func (b *BBRLite) bdpSegments(s *Sender) float64 {
	bw := b.BtlBw()
	if bw <= 0 || b.minRTT <= 0 {
		return 0
	}
	return bw * b.minRTT.Seconds() / float64(s.MSS())
}

// recordBw folds one delivery-rate sample into the max filter.
func (b *BBRLite) recordBw(bw float64) {
	for n := len(b.bwFilter); n > 0 && b.bwFilter[n-1].bw <= bw; n-- {
		b.bwFilter = b.bwFilter[:n-1]
	}
	b.bwFilter = append(b.bwFilter, bbrBwSample{round: b.roundCount, bw: bw})
	for len(b.bwFilter) > 0 && b.bwFilter[0].round < b.roundCount-bbrBwFilterRounds {
		b.bwFilter = b.bwFilter[1:]
	}
}

// OnNewAck implements Variant: update the model, run the state
// machine, and re-derive the pacing rate and window.
func (b *BBRLite) OnNewAck(s *Sender, _ *packet.Packet, acked int64) {
	now := s.Now()
	if rtt := s.LastRTT(); rtt > 0 {
		if b.minRTT == 0 || rtt < b.minRTT || now-b.minRTTAt > bbrMinRTTExpiry {
			b.minRTT, b.minRTTAt = rtt, now
		}
	}

	// Packet-conservation round trips: a round ends when the delivery
	// total passes the flight recorded at the previous round's start.
	delivered := b.sampler.Delivered()
	roundStart := false
	if delivered >= b.nextRoundDelivered {
		roundStart = true
		b.roundCount++
		b.nextRoundDelivered = delivered + s.FlightBytes()
	}

	if sample, ok := b.sampler.LastSample(); ok {
		// App-limited samples under-estimate the path: they may only
		// raise the filter, never displace a higher estimate.
		if !sample.AppLimited || sample.Rate > b.BtlBw() {
			b.recordBw(sample.Rate)
		}
	}

	switch b.state {
	case bbrStartup:
		if roundStart && b.BtlBw() > 0 {
			if b.BtlBw() >= b.fullBw*bbrFullBwThresh {
				b.fullBw = b.BtlBw()
				b.fullBwCount = 0
			} else if b.fullBwCount++; b.fullBwCount >= bbrFullBwRounds {
				// Bandwidth plateaued: the pipe is full, drain the
				// queue built by the startup gain.
				b.state = bbrDrain
			}
		}
	case bbrDrain:
		if float64(s.FlightBytes()) <= b.bdpSegments(s)*float64(s.MSS()) {
			b.state = bbrProbeBW
			b.cycleIdx = 0
			b.cycleStamp = now
		}
	case bbrProbeBW:
		if b.minRTT > 0 && now-b.cycleStamp >= b.minRTT {
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrCycleGains)
			b.cycleStamp = now
		}
	}

	b.setRates(s, acked)
}

// setRates re-derives the pacing rate and congestion window from the
// current model and state gains.
func (b *BBRLite) setRates(s *Sender, acked int64) {
	mss := float64(s.MSS())
	gain := b.PacingGain()
	if bw := b.BtlBw(); bw > 0 {
		b.pacer.SetRate(gain * bw)
	} else if rtt := s.SRTT(); rtt > 0 {
		// No delivery sample yet: bootstrap from cwnd/SRTT.
		b.pacer.SetRate(gain * s.Cwnd() * mss / rtt.Seconds())
	}
	if b.state == bbrStartup {
		// Slow-start-like exponential opening; the advertised window
		// is the cap.
		s.SetCwnd(s.Cwnd() + float64(acked)/mss)
		return
	}
	w := bbrCwndGain * b.bdpSegments(s)
	if w < bbrMinCwnd {
		w = bbrMinCwnd
	}
	s.SetCwnd(w)
}

// OnDupAck implements Variant: retransmit the hole but keep the model
// -derived window — BBR does not treat isolated loss as a congestion
// signal.
func (b *BBRLite) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	FastRetransmit(s, n)
}

// OnTimeout implements Variant: collapse conservatively to the minimum
// window; the filters survive, so the rate recovers within a round.
func (b *BBRLite) OnTimeout(s *Sender) {
	s.SetCwnd(bbrMinCwnd)
}

var (
	_ Variant = (*BBRLite)(nil)
	_ Binder  = (*BBRLite)(nil)
)
