// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol (RFC 3561) as used by the paper's simulations: on-demand RREQ
// flooding with duplicate suppression, reverse- and forward-route
// establishment under sequence-number freshness, hop-by-hop RREP
// unicast, RERR propagation driven by MAC-layer link-failure reports,
// and the optional expanding-ring search. Route discovery itself — the
// packet buffer, RREQ retries with binary exponential backoff, the
// jittered rebroadcast and the duplicate cache — is internal/ondemand's,
// shared with DSR.
package aodv

import (
	"fmt"
	"sort"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Expanding-ring search schedule (RFC 3561 section 6.4). TTLIncrement
// and TTLThreshold are the RFC's section 10 values; TTLStart is not:
// the RFC gives TTL_START = 1, this simulator starts at 2.
const (
	TTLStart     = 2
	TTLIncrement = 2
	TTLThreshold = 7
)

// Config holds the AODV-only parameters; the discovery parameters are
// the ondemand.Config passed to New alongside.
type Config struct {
	// ActiveRouteTimeout is how long an unused route stays valid. The
	// paper's topologies are static, so the default is generous.
	ActiveRouteTimeout sim.Time
	// ExpandingRing enables RFC 3561 6.4 expanding-ring search:
	// discovery starts with a TTL-limited RREQ (TTLStart), widening by
	// TTLIncrement per timeout until TTLThreshold, then goes
	// network-wide. Off by default so paper-scale scenarios keep their
	// exact historical flood behavior.
	ExpandingRing bool
}

// DefaultConfig returns parameters suitable for the paper's 4-32 node
// static scenarios.
func DefaultConfig() Config {
	return Config{ActiveRouteTimeout: 100 * sim.Second}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ActiveRouteTimeout <= 0 {
		return fmt.Errorf("aodv: ActiveRouteTimeout must be positive, got %v", c.ActiveRouteTimeout)
	}
	return nil
}

type route struct {
	nextHop packet.NodeID
	hops    int
	seq     uint32
	valid   bool
	expiry  sim.Time
}

// Router is one node's AODV instance.
type Router struct {
	sim  *sim.Simulator
	self packet.NodeID
	out  ondemand.Output
	cfg  Config
	od   *ondemand.Core

	seq    uint32
	routes map[packet.NodeID]*route
}

// New creates a router for node self. ids must be the simulation-wide
// packet ID generator; disc holds the route-discovery parameters.
func New(s *sim.Simulator, self packet.NodeID, out ondemand.Output, ids *packet.IDGen, disc ondemand.Config, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		sim:    s,
		self:   self,
		out:    out,
		cfg:    cfg,
		routes: make(map[packet.NodeID]*route),
	}
	od, err := ondemand.New(s, self, out, ids, disc, r)
	if err != nil {
		return nil, err
	}
	r.od = od
	return r, nil
}

// Stats returns a copy of the router counters.
func (r *Router) Stats() ondemand.Stats { return r.od.Stats }

// Reset wipes all volatile protocol state, as a node crash would: routes,
// duplicate-suppression cache, and in-flight discoveries (their timers are
// stopped and buffered packets dropped). Cumulative stats survive; sequence
// and RREQ counters restart from zero like a cold boot.
func (r *Router) Reset() {
	r.od.Reset()
	r.routes = make(map[packet.NodeID]*route)
	r.seq = 0
}

// VisitNextHops calls fn for every valid, unexpired route, in no
// particular order, without refreshing lifetimes. The run-time
// loop-freedom invariant scan reads the tables through it.
func (r *Router) VisitNextHops(fn func(dst, nextHop packet.NodeID)) {
	now := r.sim.Now()
	for dst, rt := range r.routes {
		if rt.valid && now < rt.expiry {
			fn(dst, rt.nextHop)
		}
	}
}

// NextHop returns the next hop for dst if a valid, unexpired route
// exists, refreshing its lifetime.
func (r *Router) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	rt := r.routes[dst]
	if rt == nil || !rt.valid || r.sim.Now() >= rt.expiry {
		return 0, false
	}
	rt.expiry = r.sim.Now() + r.cfg.ActiveRouteTimeout
	return rt.nextHop, true
}

// HopCount returns the advertised hop count of the current route to dst,
// or -1 if none. For tests and diagnostics.
func (r *Router) HopCount(dst packet.NodeID) int {
	rt := r.routes[dst]
	if rt == nil || !rt.valid || r.sim.Now() >= rt.expiry {
		return -1
	}
	return rt.hops
}

// SendData routes a data packet: forwards it immediately when a route
// exists, otherwise buffers it and starts (or joins) a route discovery.
func (r *Router) SendData(pkt *packet.Packet) {
	if nh, ok := r.NextHop(pkt.Dst); ok {
		r.out.ForwardData(pkt, nh)
		return
	}
	r.od.Buffer(pkt)
}

// FirstTTL implements ondemand.Protocol: network-wide unless the
// expanding ring is on, which starts from a known (possibly stale)
// route's distance, or else from TTLStart (RFC 3561 6.4).
func (r *Router) FirstTTL(dst packet.NodeID) int {
	if !r.cfg.ExpandingRing {
		return 0
	}
	ttl := TTLStart
	if rt := r.routes[dst]; rt != nil && rt.hops > 0 {
		ttl = rt.hops + TTLIncrement
	}
	if ttl > TTLThreshold {
		ttl = 0
	}
	return ttl
}

// WidenTTL implements ondemand.Protocol: the ring grows by TTLIncrement
// and goes network-wide past TTLThreshold.
func (r *Router) WidenTTL(ttl int) int {
	ttl += TTLIncrement
	if ttl > TTLThreshold {
		ttl = 0
	}
	return ttl
}

// SendRequest implements ondemand.Protocol: it floods an RREQ for dst
// carrying this node's bumped sequence number.
func (r *Router) SendRequest(dst packet.NodeID, hopLimit int) {
	r.seq++
	req := &RREQ{
		ID:       r.od.NewRequest(),
		Src:      r.self,
		SrcSeq:   r.seq,
		Dst:      dst,
		HopLimit: hopLimit,
	}
	if rt := r.routes[dst]; rt != nil {
		req.DstSeq = rt.seq
		req.DstSeqKnown = true
	}
	r.od.Broadcast(req, rreqSize)
}

// HandleRouting processes a received AODV message. prevHop is the MAC
// source the message arrived from.
func (r *Router) HandleRouting(pkt *packet.Packet) {
	prevHop := pkt.MACSrc
	switch msg := pkt.Payload.(type) {
	case *RREQ:
		r.handleRREQ(msg, prevHop)
	case *RREP:
		r.handleRREP(msg, prevHop)
	case *RERR:
		r.handleRERR(msg, prevHop)
	}
}

func (r *Router) handleRREQ(req *RREQ, prevHop packet.NodeID) {
	if r.od.Duplicate(req.Src, req.ID) {
		return
	}

	// Reverse route to the originator through the previous hop.
	r.updateRoute(req.Src, prevHop, req.HopCount+1, req.SrcSeq)

	if req.Dst == r.self {
		// We are the destination: reply with our own sequence number
		// (bumped to at least the requested freshness, RFC 3561 6.6.1).
		if req.DstSeqKnown && req.DstSeq > r.seq {
			r.seq = req.DstSeq
		}
		r.seq++
		r.sendRREP(&RREP{Src: req.Src, Dst: r.self, DstSeq: r.seq, HopCount: 0}, prevHop)
		return
	}

	// Intermediate node with a fresh-enough valid route may reply — unless
	// our cached route points back through the previous hop, in which case
	// replying would install a two-node forwarding loop (the classic
	// post-reboot hazard: the requester lost its state, but our stale route
	// still names it as the way toward the destination).
	if rt := r.routes[req.Dst]; rt != nil && rt.valid && r.sim.Now() < rt.expiry &&
		req.DstSeqKnown && rt.seq >= req.DstSeq && rt.nextHop != prevHop {
		r.sendRREP(&RREP{Src: req.Src, Dst: req.Dst, DstSeq: rt.seq, HopCount: rt.hops}, prevHop)
		return
	}

	// Ring edge: a TTL-limited RREQ stops here. Destination and
	// fresh-route replies above still fire, which is the whole point of
	// the expanding ring — only the flood is contained.
	if req.HopLimit > 0 && req.HopCount+1 >= req.HopLimit {
		return
	}

	// Rebroadcast the flood with jitter to de-synchronize neighbours.
	fwd := &RREQ{
		ID: req.ID, Src: req.Src, SrcSeq: req.SrcSeq,
		Dst: req.Dst, DstSeq: req.DstSeq, DstSeqKnown: req.DstSeqKnown,
		HopCount: req.HopCount + 1, HopLimit: req.HopLimit,
	}
	r.od.Rebroadcast(fwd, rreqSize)
}

func (r *Router) sendRREP(rep *RREP, nextHop packet.NodeID) {
	r.od.Stats.RREPSent++
	r.out.SendRouting(r.od.Packet(rep, rrepSize, nextHop), nextHop)
}

func (r *Router) handleRREP(rep *RREP, prevHop packet.NodeID) {
	// Forward route to the destination through the previous hop.
	r.updateRoute(rep.Dst, prevHop, rep.HopCount+1, rep.DstSeq)

	if rep.Src == r.self {
		// Our discovery completed: flush buffered packets.
		buf, ok := r.od.Complete(rep.Dst)
		if !ok {
			return
		}
		nh, ok := r.NextHop(rep.Dst)
		for _, pkt := range buf {
			if ok {
				r.out.ForwardData(pkt, nh)
			} else {
				r.out.DropData(pkt, "route vanished after reply")
			}
		}
		return
	}

	// Forward the RREP along the reverse route toward the originator.
	nh, ok := r.NextHop(rep.Src)
	if !ok {
		return // reverse route lost; the originator will retry
	}
	fwd := &RREP{Src: rep.Src, Dst: rep.Dst, DstSeq: rep.DstSeq, HopCount: rep.HopCount + 1}
	r.sendRREP(fwd, nh)
}

func (r *Router) handleRERR(rerr *RERR, prevHop packet.NodeID) {
	var propagate []Unreachable
	for _, u := range rerr.Unreachable {
		rt := r.routes[u.Dst]
		if rt == nil || !rt.valid || rt.nextHop != prevHop {
			continue
		}
		rt.valid = false
		if u.Seq > rt.seq {
			rt.seq = u.Seq
		}
		propagate = append(propagate, Unreachable{Dst: u.Dst, Seq: rt.seq})
	}
	if len(propagate) > 0 {
		r.broadcastRERR(propagate)
	}
}

// LinkFailure handles a MAC retry-exhaustion report for a frame that was
// headed to nextHop. Routes through that neighbour are invalidated and a
// RERR is broadcast; the failed data packet (if any) is re-routed when we
// still have an alternative, otherwise dropped.
func (r *Router) LinkFailure(nextHop packet.NodeID, failed *packet.Packet) {
	r.od.Stats.LinkFailures++
	var lost []Unreachable
	for dst, rt := range r.routes {
		if rt.valid && rt.nextHop == nextHop {
			rt.valid = false
			rt.seq++
			lost = append(lost, Unreachable{Dst: dst, Seq: rt.seq})
		}
	}
	// Stable RERR ordering: map iteration order must not leak into the
	// byte-for-byte reproducible event stream.
	sort.Slice(lost, func(i, j int) bool { return lost[i].Dst < lost[j].Dst })
	if len(lost) > 0 {
		r.broadcastRERR(lost)
	}
	if failed != nil && failed.Kind == packet.KindData {
		// Re-enter the routing path: this triggers a fresh discovery at
		// the source, or a local repair attempt if we are intermediate.
		r.SendData(failed)
	}
}

func (r *Router) broadcastRERR(lost []Unreachable) {
	msg := &RERR{Unreachable: lost}
	r.od.Stats.RERRSent++
	r.od.Broadcast(msg, msg.size())
}

// updateRoute installs or refreshes a route, preferring fresher sequence
// numbers and, at equal freshness, shorter paths or a replacement for an
// inactive route (RFC 3561 6.2). An older sequence number never wins,
// not even over an invalidated route: LinkFailure and RERR bump the
// sequence number precisely so that a late RREP or RREQ reverse route
// from before the break cannot reinstall the path that just failed,
// which is how a routing loop forms.
func (r *Router) updateRoute(dst, nextHop packet.NodeID, hops int, seq uint32) {
	if dst == r.self {
		return
	}
	rt := r.routes[dst]
	if rt == nil {
		r.routes[dst] = &route{
			nextHop: nextHop, hops: hops, seq: seq,
			valid: true, expiry: r.sim.Now() + r.cfg.ActiveRouteTimeout,
		}
		return
	}
	stale := !rt.valid || r.sim.Now() >= rt.expiry
	if seq > rt.seq || (seq == rt.seq && (hops < rt.hops || stale)) {
		rt.nextHop = nextHop
		rt.hops = hops
		rt.seq = seq
		rt.valid = true
		rt.expiry = r.sim.Now() + r.cfg.ActiveRouteTimeout
	}
}
