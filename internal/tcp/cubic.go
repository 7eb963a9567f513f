package tcp

import (
	"math"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

// CUBIC constants from RFC 8312: the cubic scaling factor C and the
// multiplicative decrease factor beta_cubic.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// CUBIC implements RFC 8312 congestion control: window growth is a
// cubic function of the time since the last congestion event — concave
// up to the pre-loss window W_max (fast recovery of the old operating
// point), then convex beyond it (probing for new bandwidth) — with
// fast convergence and the TCP-friendly region that keeps it no worse
// than AIMD on short-RTT paths. Loss recovery itself is NewReno-style
// (partial ACKs retransmit the next hole).
type CUBIC struct {
	fastConvergence bool

	wMax   float64  // window just before the last reduction, segments
	epoch  sim.Time // start of the current growth epoch (0 = unset)
	k      float64  // seconds for the cubic to return to its origin
	origin float64  // window at the cubic's inflection point
	wEst   float64  // TCP-friendly (AIMD-equivalent) window estimate

	rec Recovery
}

// NewCUBIC returns the CUBIC variant with fast convergence enabled.
func NewCUBIC() *CUBIC { return &CUBIC{fastConvergence: true} }

// OnNewAck implements Variant.
func (c *CUBIC) OnNewAck(s *Sender, ack *packet.Packet, acked int64) {
	if c.rec.Active() {
		if c.rec.OnNewAck(s, ack) {
			s.SetCwnd(s.Ssthresh())
			return
		}
		// Partial ACK: the next hole was resent; deflate as NewReno.
		deflatePartial(s, acked)
		return
	}
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + 1)
		return
	}
	c.update(s)
}

// update applies one ACK's worth of cubic window growth.
func (c *CUBIC) update(s *Sender) {
	cwnd := s.Cwnd()
	rtt := s.SRTT()
	if rtt <= 0 {
		rtt = 100 * sim.Millisecond
	}
	if c.epoch == 0 {
		c.epoch = s.Now()
		if cwnd < c.wMax {
			// K = cbrt((W_max - cwnd) / C): time for the cubic to climb
			// back to the pre-loss window.
			c.k = math.Cbrt((c.wMax - cwnd) / cubicC)
			c.origin = c.wMax
		} else {
			c.k = 0
			c.origin = cwnd
		}
		c.wEst = cwnd
	}
	// W_cubic(t + RTT): the window the cubic targets one RTT ahead.
	target := c.wCubic((s.Now() - c.epoch).Seconds() + rtt.Seconds())
	// RFC 8312 4.1: clamp the per-RTT target into [cwnd, 1.5*cwnd].
	if target < cwnd {
		target = cwnd
	} else if target > 1.5*cwnd {
		target = 1.5 * cwnd
	}
	cwnd += (target - cwnd) / cwnd

	// TCP-friendly region: track the window standard AIMD would reach
	// (RFC 8312 4.2) and never fall below it.
	c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) / cwnd
	if c.wEst > cwnd {
		cwnd = c.wEst
	}
	s.SetCwnd(cwnd)
}

// wCubic is RFC 8312's W_cubic(t) = C*(t-K)^3 + W_max for t seconds
// into the current epoch (W_max is the origin).
func (c *CUBIC) wCubic(t float64) float64 {
	return c.origin + cubicC*math.Pow(t-c.k, 3)
}

// registerLoss updates W_max for a congestion event at window w, with
// fast convergence (RFC 8312 4.6): when the window plateaus below the
// previous W_max, release bandwidth early by remembering less.
func (c *CUBIC) registerLoss(w float64) {
	if c.fastConvergence && w < c.wMax {
		c.wMax = w * (1 + cubicBeta) / 2
	} else {
		c.wMax = w
	}
	c.epoch = 0
}

// OnDupAck implements Variant.
func (c *CUBIC) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	if !c.rec.OnDupAck(s, n) {
		return
	}
	c.registerLoss(s.Cwnd())
	s.SetSsthresh(s.Cwnd() * cubicBeta)
	s.SetCwnd(s.Ssthresh() + 3)
}

// OnTimeout implements Variant.
func (c *CUBIC) OnTimeout(s *Sender) {
	c.rec.Leave()
	c.registerLoss(s.Cwnd())
	s.SetSsthresh(s.Cwnd() * cubicBeta)
	s.SetCwnd(1)
}

// WMax returns the remembered pre-loss window, for tests.
func (c *CUBIC) WMax() float64 { return c.wMax }

var _ Variant = (*CUBIC)(nil)
