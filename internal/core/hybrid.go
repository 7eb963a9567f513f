package core

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/tcp"
)

// DRAIClamped composes router assistance onto an end-to-end congestion
// controller: the wrapped variant keeps full control of growth, loss
// response and (for model-based senders) pacing, while the routers'
// echoed path recommendation acts as a deceleration-only ceiling applied
// once per RTT. This is the "Muzha hybrid" seam the modern comparison
// grid exercises — it answers whether DRAI still has something to offer
// when the end-to-end side is CUBIC or BBR rather than NewReno: routers
// can slow a modern sender down before queues build, but never accelerate
// it beyond what its own model would do, so the wrapper cannot be blamed
// for any speed-up the inner variant did not earn.
type DRAIClamped struct {
	Inner tcp.Variant

	// MinWindow floors deceleration clamps (segments). Router
	// recommendations reflect total load, so without a floor a flow
	// could be pinned at one segment by congestion its competitors
	// cause (same rationale as Muzha.MinOperatingWindow).
	MinWindow float64

	minMRAI    int // minimum MRAI echoed since the last clamp
	lastClamp  sim.Time
	clampCount int64
}

// NewDRAIClamped wraps an end-to-end variant with the router-assist
// deceleration clamp.
func NewDRAIClamped(inner tcp.Variant) *DRAIClamped {
	return &DRAIClamped{Inner: inner, MinWindow: 2}
}

// Clamps reports how many times the router recommendation actually
// lowered the window (observability for tests and experiments).
func (c *DRAIClamped) Clamps() int64 { return c.clampCount }

// Bind implements tcp.Binder by forwarding to the inner variant, so a
// wrapped BBR-lite still attaches its pacer and rate sampler.
func (c *DRAIClamped) Bind(s *tcp.Sender) {
	if b, ok := c.Inner.(tcp.Binder); ok {
		b.Bind(s)
	}
}

// OnNewAck implements tcp.Variant: fold the ACK's echoed MRAI into the
// running minimum, let the inner variant react, then — at most once per
// RTT — apply a deceleration recommendation as a ceiling on whatever
// window the inner variant chose.
func (c *DRAIClamped) OnNewAck(s *tcp.Sender, ack *packet.Packet, acked int64) {
	if mrai := ack.TCP.Echo.MRAI; mrai > 0 && (c.minMRAI == 0 || mrai < c.minMRAI) {
		c.minMRAI = mrai
	}
	c.Inner.OnNewAck(s, ack, acked)

	rtt := s.SRTT()
	if rtt <= 0 {
		rtt = 10 * sim.Millisecond
	}
	if s.Now()-c.lastClamp < rtt {
		return
	}
	c.lastClamp = s.Now()
	mrai := c.minMRAI
	c.minMRAI = 0
	if mrai == 0 || mrai >= DRAIStabilize {
		// No recommendation, or hold/accelerate: end-to-end control
		// stands. Acceleration grants are deliberately ignored.
		return
	}
	before := s.Cwnd()
	next := ApplyDRAI(before, mrai)
	if next < c.MinWindow {
		next = c.MinWindow
	}
	if next < before {
		s.SetCwnd(next)
		c.clampCount++
	}
}

// OnDupAck implements tcp.Variant by delegating loss response entirely
// to the inner variant.
func (c *DRAIClamped) OnDupAck(s *tcp.Sender, ack *packet.Packet, dups int) {
	c.Inner.OnDupAck(s, ack, dups)
}

// OnTimeout implements tcp.Variant: the inner variant's collapse stands,
// and the stale recommendation from before the stall is discarded.
func (c *DRAIClamped) OnTimeout(s *tcp.Sender) {
	c.minMRAI = 0
	c.Inner.OnTimeout(s)
}
