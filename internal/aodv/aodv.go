// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol (RFC 3561) as used by the paper's simulations: on-demand RREQ
// flooding with duplicate suppression and rebroadcast jitter, reverse- and
// forward-route establishment, hop-by-hop RREP unicast, RERR propagation
// driven by MAC-layer link-failure reports, per-destination packet
// buffering during discovery, and RREQ retries with binary exponential
// backoff.
package aodv

import (
	"fmt"
	"sort"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Output is the interface the router uses to hand packets back to the
// node for transmission.
type Output interface {
	// SendRouting enqueues an AODV message. nextHop may be
	// packet.Broadcast.
	SendRouting(pkt *packet.Packet, nextHop packet.NodeID)
	// ForwardData transmits a data packet to the given next hop. Called
	// both for freshly routable packets flushed from the discovery
	// buffer and is reused by the node's own forwarding path.
	ForwardData(pkt *packet.Packet, nextHop packet.NodeID)
	// DropData disposes of a data packet the router cannot deliver
	// (discovery failed or buffer overflow).
	DropData(pkt *packet.Packet, reason string)
}

// Expanding-ring search schedule (RFC 3561 section 6.4). TTLIncrement
// and TTLThreshold are the RFC's section 10 values; TTLStart is not:
// the RFC gives TTL_START = 1, this simulator starts at 2.
const (
	TTLStart     = 2
	TTLIncrement = 2
	TTLThreshold = 7
)

// DefaultSeenCacheSize is the duplicate-RREQ cache bound applied when
// Config.SeenCacheSize is zero.
const DefaultSeenCacheSize = 2048

// Config holds AODV protocol parameters.
type Config struct {
	// ActiveRouteTimeout is how long an unused route stays valid. The
	// paper's topologies are static, so the default is generous.
	ActiveRouteTimeout sim.Time
	// DiscoveryTimeout is the initial RREP wait; it doubles with each
	// retry (RFC 3561 binary exponential backoff).
	DiscoveryTimeout sim.Time
	// RREQRetries is the number of retries after the first attempt.
	// With ExpandingRing it counts network-wide attempts only; ring
	// attempts are free.
	RREQRetries int
	// MaxBuffered bounds the per-destination packet buffer held during
	// route discovery.
	MaxBuffered int
	// BroadcastJitter is the maximum random delay applied before
	// rebroadcasting an RREQ, de-synchronizing the flood.
	BroadcastJitter sim.Time
	// ExpandingRing enables RFC 3561 6.4 expanding-ring search:
	// discovery starts with a TTL-limited RREQ (TTLStart), widening by
	// TTLIncrement per timeout until TTLThreshold, then goes
	// network-wide. Off by default so paper-scale scenarios keep their
	// exact historical flood behavior.
	ExpandingRing bool
	// SeenCacheSize bounds the duplicate-RREQ suppression cache
	// (FIFO eviction). Zero selects DefaultSeenCacheSize. The default
	// is far above anything the paper's scenarios produce, so eviction
	// never fires there.
	SeenCacheSize int
}

// DefaultConfig returns parameters suitable for the paper's 4-32 node
// static scenarios.
func DefaultConfig() Config {
	return Config{
		ActiveRouteTimeout: 100 * sim.Second,
		DiscoveryTimeout:   500 * sim.Millisecond,
		RREQRetries:        3,
		MaxBuffered:        64,
		BroadcastJitter:    10 * sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ActiveRouteTimeout <= 0:
		return fmt.Errorf("aodv: ActiveRouteTimeout must be positive, got %v", c.ActiveRouteTimeout)
	case c.DiscoveryTimeout <= 0:
		return fmt.Errorf("aodv: DiscoveryTimeout must be positive, got %v", c.DiscoveryTimeout)
	case c.RREQRetries < 0:
		return fmt.Errorf("aodv: RREQRetries must be >= 0, got %d", c.RREQRetries)
	case c.MaxBuffered < 1:
		return fmt.Errorf("aodv: MaxBuffered must be >= 1, got %d", c.MaxBuffered)
	case c.BroadcastJitter < 0:
		return fmt.Errorf("aodv: BroadcastJitter must be >= 0, got %v", c.BroadcastJitter)
	case c.SeenCacheSize < 0:
		return fmt.Errorf("aodv: SeenCacheSize must be >= 0, got %d", c.SeenCacheSize)
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

type rreqKey struct {
	src packet.NodeID
	id  uint32
}

type discovery struct {
	buffer  []*packet.Packet
	retries int // network-wide attempts after the first
	ttl     int // current ring TTL; 0 means network-wide
	timer   *sim.Timer
}

// seenCache is a bounded duplicate-RREQ suppression set with FIFO
// eviction. Unbounded growth here is O(total discoveries in the
// network) per node — the dominant memory cliff at 1000 nodes.
type seenCache struct {
	cap   int
	m     map[rreqKey]struct{}
	order []rreqKey // insertion-ordered ring, oldest at head once full
	head  int
}

func newSeenCache(capacity int) *seenCache {
	return &seenCache{cap: capacity, m: make(map[rreqKey]struct{})}
}

func (c *seenCache) has(k rreqKey) bool {
	_, ok := c.m[k]
	return ok
}

func (c *seenCache) add(k rreqKey) {
	if _, ok := c.m[k]; ok {
		return
	}
	if len(c.order) < c.cap {
		c.order = append(c.order, k)
	} else {
		delete(c.m, c.order[c.head])
		c.order[c.head] = k
		c.head = (c.head + 1) % c.cap
	}
	c.m[k] = struct{}{}
}

// Stats are cumulative router counters.
type Stats struct {
	RREQSent     uint64 // originated + rebroadcast
	RREPSent     uint64 // originated + forwarded
	RERRSent     uint64
	Discoveries  uint64 // route discoveries started
	DiscoveryOK  uint64 // discoveries that produced a route
	DiscoveryErr uint64 // discoveries that exhausted retries
	LinkFailures uint64 // MAC-reported broken links
}

// Router is one node's AODV instance.
type Router struct {
	sim  *sim.Simulator
	self packet.NodeID
	out  Output
	cfg  Config
	ids  *packet.IDGen

	seq     uint32
	rreqID  uint32
	routes  map[packet.NodeID]*route
	seen    *seenCache
	pending map[packet.NodeID]*discovery

	stats Stats
}

// New creates a router for node self. ids must be the simulation-wide
// packet ID generator.
func New(s *sim.Simulator, self packet.NodeID, out Output, ids *packet.IDGen, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SeenCacheSize == 0 {
		cfg.SeenCacheSize = DefaultSeenCacheSize
	}
	return &Router{
		sim:     s,
		self:    self,
		out:     out,
		cfg:     cfg,
		ids:     ids,
		routes:  make(map[packet.NodeID]*route),
		seen:    newSeenCache(cfg.SeenCacheSize),
		pending: make(map[packet.NodeID]*discovery),
	}, nil
}

// Stats returns a copy of the router counters.
func (r *Router) Stats() Stats { return r.stats }

// Reset wipes all volatile protocol state, as a node crash would: routes,
// duplicate-suppression cache, and in-flight discoveries (their timers are
// stopped and buffered packets dropped). Cumulative stats survive; sequence
// and RREQ counters restart from zero like a cold boot.
func (r *Router) Reset() {
	dsts := make([]packet.NodeID, 0, len(r.pending))
	for dst := range r.pending {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		d := r.pending[dst]
		d.timer.Stop()
		for _, pkt := range d.buffer {
			r.out.DropData(pkt, "router reset")
		}
	}
	r.routes = make(map[packet.NodeID]*route)
	r.seen = newSeenCache(r.cfg.SeenCacheSize)
	r.pending = make(map[packet.NodeID]*discovery)
	r.seq = 0
	r.rreqID = 0
}

// NextHops returns a snapshot of the valid, unexpired routing table as a
// dst -> next-hop map, without refreshing lifetimes. Used by the run-time
// loop-freedom invariant scan.
func (r *Router) NextHops() map[packet.NodeID]packet.NodeID {
	now := r.sim.Now()
	out := make(map[packet.NodeID]packet.NodeID, len(r.routes))
	for dst, rt := range r.routes {
		if rt.valid && now < rt.expiry {
			out[dst] = rt.nextHop
		}
	}
	return out
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
	d := r.pending[pkt.Dst]
	if d == nil {
		d = &discovery{}
		r.pending[pkt.Dst] = d
		r.startDiscovery(pkt.Dst, d)
	}
	if len(d.buffer) >= r.cfg.MaxBuffered {
		r.out.DropData(pkt, "discovery buffer full")
		return
	}
	d.buffer = append(d.buffer, pkt)
}

func (r *Router) startDiscovery(dst packet.NodeID, d *discovery) {
	r.stats.Discoveries++
	if r.cfg.ExpandingRing {
		// A known (possibly stale) route hints at the destination's
		// distance; otherwise start at TTLStart (RFC 3561 6.4).
		d.ttl = TTLStart
		if rt := r.routes[dst]; rt != nil && rt.hops > 0 {
			d.ttl = rt.hops + TTLIncrement
		}
		if d.ttl > TTLThreshold {
			d.ttl = 0
		}
	}
	r.sendRREQ(dst, d.ttl)
	d.timer = sim.NewTimer(r.sim, func() { r.discoveryTimeout(dst) })
	d.timer.Reset(r.cfg.DiscoveryTimeout)
}

func (r *Router) sendRREQ(dst packet.NodeID, hopLimit int) {
	r.seq++
	r.rreqID++
	req := &RREQ{
		ID:       r.rreqID,
		Src:      r.self,
		SrcSeq:   r.seq,
		Dst:      dst,
		HopLimit: hopLimit,
	}
	if rt := r.routes[dst]; rt != nil {
		req.DstSeq = rt.seq
		req.DstSeqKnown = true
	}
	// Suppress our own flood copy coming back.
	r.seen.add(rreqKey{src: r.self, id: req.ID})
	r.stats.RREQSent++
	r.out.SendRouting(r.routingPacket(req, rreqSize, packet.Broadcast), packet.Broadcast)
}

func (r *Router) discoveryTimeout(dst packet.NodeID) {
	d := r.pending[dst]
	if d == nil {
		return
	}
	if d.ttl > 0 {
		// Expanding ring: widen and retry without consuming a
		// network-wide retry. Ring attempts use the plain timeout;
		// binary backoff applies only to network-wide floods.
		d.ttl += TTLIncrement
		if d.ttl > TTLThreshold {
			d.ttl = 0
		}
		r.sendRREQ(dst, d.ttl)
		d.timer.Reset(r.cfg.DiscoveryTimeout)
		return
	}
	if d.retries >= r.cfg.RREQRetries {
		delete(r.pending, dst)
		r.stats.DiscoveryErr++
		for _, pkt := range d.buffer {
			r.out.DropData(pkt, "no route after retries")
		}
		return
	}
	d.retries++
	r.sendRREQ(dst, 0)
	d.timer.Reset(r.cfg.DiscoveryTimeout << uint(d.retries))
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
	key := rreqKey{src: req.Src, id: req.ID}
	if r.seen.has(key) {
		return
	}
	r.seen.add(key)

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
	jitter := sim.Time(0)
	if r.cfg.BroadcastJitter > 0 {
		jitter = sim.Time(r.sim.Rand().Int63n(int64(r.cfg.BroadcastJitter)))
	}
	r.sim.Schedule(jitter, func() {
		r.stats.RREQSent++
		r.out.SendRouting(r.routingPacket(fwd, rreqSize, packet.Broadcast), packet.Broadcast)
	})
}

func (r *Router) sendRREP(rep *RREP, nextHop packet.NodeID) {
	r.stats.RREPSent++
	r.out.SendRouting(r.routingPacket(rep, rrepSize, nextHop), nextHop)
}

func (r *Router) handleRREP(rep *RREP, prevHop packet.NodeID) {
	// Forward route to the destination through the previous hop.
	r.updateRoute(rep.Dst, prevHop, rep.HopCount+1, rep.DstSeq)

	if rep.Src == r.self {
		// Our discovery completed: flush buffered packets.
		d := r.pending[rep.Dst]
		if d == nil {
			return
		}
		delete(r.pending, rep.Dst)
		d.timer.Stop()
		r.stats.DiscoveryOK++
		nh, ok := r.NextHop(rep.Dst)
		if !ok {
			for _, pkt := range d.buffer {
				r.out.DropData(pkt, "route vanished after reply")
			}
			return
		}
		for _, pkt := range d.buffer {
			r.out.ForwardData(pkt, nh)
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
	r.stats.LinkFailures++
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
	r.stats.RERRSent++
	r.out.SendRouting(r.routingPacket(msg, msg.size(), packet.Broadcast), packet.Broadcast)
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

func (r *Router) routingPacket(payload any, size int, macDst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		UID:     r.ids.Next(),
		Kind:    packet.KindRouting,
		Src:     r.self,
		Dst:     macDst,
		TTL:     32,
		Size:    size + packet.IPHeaderSize,
		MACSrc:  r.self,
		MACDst:  macDst,
		Payload: payload,
	}
}
