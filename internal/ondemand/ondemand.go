// Package ondemand is the half of an on-demand MANET router that AODV
// and DSR share: the node-facing Output, the router counters, the
// bounded duplicate-request cache, the jittered request rebroadcast, and
// route discovery itself — the per-destination packet buffer, the
// request timer with binary exponential backoff and its give-up, the
// hand-back of the buffer when the reply reaches the originator, and
// the drops of a reset. Each protocol supplies its own messages through
// Protocol; the expanding ring (RFC 3561 section 6.4) rides on two of
// its hooks, so the code here never asks which protocol it serves.
package ondemand

import (
	"fmt"
	"sort"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Output is the interface a router uses to hand packets back to the
// node for transmission.
type Output interface {
	// SendRouting enqueues a routing message. nextHop may be
	// packet.Broadcast.
	SendRouting(pkt *packet.Packet, nextHop packet.NodeID)
	// ForwardData transmits a data packet to the given next hop. Called
	// both for freshly routable packets flushed from the discovery
	// buffer and from the node's own forwarding path.
	ForwardData(pkt *packet.Packet, nextHop packet.NodeID)
	// DropData disposes of a data packet the router cannot deliver
	// (discovery failed or buffer overflow).
	DropData(pkt *packet.Packet, reason string)
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

// DefaultSeenCacheSize is the duplicate-request cache bound applied
// when Config.SeenCacheSize is zero.
const DefaultSeenCacheSize = 2048

// Config holds the route-discovery parameters both protocols use.
type Config struct {
	// DiscoveryTimeout is the initial reply wait; it doubles with each
	// retry (RFC 3561 binary exponential backoff).
	DiscoveryTimeout sim.Time
	// Retries is the number of network-wide retries after the first
	// attempt. Expanding-ring attempts do not count.
	Retries int
	// MaxBuffered bounds the per-destination packet buffer held during
	// route discovery.
	MaxBuffered int
	// BroadcastJitter is the maximum random delay applied before
	// rebroadcasting a request, de-synchronizing the flood.
	BroadcastJitter sim.Time
	// SeenCacheSize bounds the duplicate-request suppression cache
	// (FIFO eviction). Zero selects DefaultSeenCacheSize. The default
	// is far above anything the paper's scenarios produce, so eviction
	// never fires there.
	SeenCacheSize int
}

// DefaultConfig returns parameters suitable for the paper's 4-32 node
// static scenarios.
func DefaultConfig() Config {
	return Config{
		DiscoveryTimeout: 500 * sim.Millisecond,
		Retries:          3,
		MaxBuffered:      64,
		BroadcastJitter:  10 * sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.DiscoveryTimeout <= 0:
		return fmt.Errorf("ondemand: DiscoveryTimeout must be positive, got %v", c.DiscoveryTimeout)
	case c.Retries < 0:
		return fmt.Errorf("ondemand: Retries must be >= 0, got %d", c.Retries)
	case c.MaxBuffered < 1:
		return fmt.Errorf("ondemand: MaxBuffered must be >= 1, got %d", c.MaxBuffered)
	case c.BroadcastJitter < 0:
		return fmt.Errorf("ondemand: BroadcastJitter must be >= 0, got %v", c.BroadcastJitter)
	case c.SeenCacheSize < 0:
		return fmt.Errorf("ondemand: SeenCacheSize must be >= 0, got %d", c.SeenCacheSize)
	}
	return nil
}

// Protocol is what route discovery asks of the protocol it serves.
type Protocol interface {
	// SendRequest originates one route request for dst limited to ttl
	// hops; 0 means network-wide.
	SendRequest(dst packet.NodeID, ttl int)
	// FirstTTL returns the hop limit of a new discovery's first
	// request; 0 means network-wide.
	FirstTTL(dst packet.NodeID) int
	// WidenTTL returns the hop limit of the next ring after a ring of
	// ttl hops timed out; 0 means network-wide. Ring attempts consume
	// no retry and wait the plain DiscoveryTimeout.
	WidenTTL(ttl int) int
}

// Core is one node's protocol-independent routing state.
type Core struct {
	// Stats are the router counters; the protocol counts its replies,
	// errors and link failures here too.
	Stats Stats

	sim   *sim.Simulator
	self  packet.NodeID
	out   Output
	ids   *packet.IDGen
	cfg   Config
	proto Protocol

	rreqID  uint32
	seen    *seenCache
	pending map[packet.NodeID]*discovery
}

type discovery struct {
	buffer  []*packet.Packet
	retries int // network-wide attempts after the first
	ttl     int // current ring TTL; 0 means network-wide
	timer   *sim.Timer
}

// New creates the shared state of node self's router. ids must be the
// simulation-wide packet ID generator.
func New(s *sim.Simulator, self packet.NodeID, out Output, ids *packet.IDGen, cfg Config, proto Protocol) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SeenCacheSize == 0 {
		cfg.SeenCacheSize = DefaultSeenCacheSize
	}
	return &Core{
		sim:     s,
		self:    self,
		out:     out,
		ids:     ids,
		cfg:     cfg,
		proto:   proto,
		seen:    newSeenCache(cfg.SeenCacheSize),
		pending: make(map[packet.NodeID]*discovery),
	}, nil
}

// Buffer holds a data packet for which no route exists, starting a
// route discovery for its destination unless one is under way. A full
// buffer drops the packet.
func (c *Core) Buffer(pkt *packet.Packet) {
	d := c.pending[pkt.Dst]
	if d == nil {
		d = &discovery{}
		c.pending[pkt.Dst] = d
		c.start(pkt.Dst, d)
	}
	if len(d.buffer) >= c.cfg.MaxBuffered {
		c.out.DropData(pkt, "discovery buffer full")
		return
	}
	d.buffer = append(d.buffer, pkt)
}

func (c *Core) start(dst packet.NodeID, d *discovery) {
	c.Stats.Discoveries++
	d.ttl = c.proto.FirstTTL(dst)
	c.proto.SendRequest(dst, d.ttl)
	d.timer = sim.NewTimer(c.sim, func() { c.timeout(dst) })
	d.timer.Reset(c.cfg.DiscoveryTimeout)
}

func (c *Core) timeout(dst packet.NodeID) {
	d := c.pending[dst]
	if d == nil {
		return
	}
	if d.ttl > 0 {
		// Expanding ring: widen and retry without consuming a
		// network-wide retry. Ring attempts use the plain timeout;
		// binary backoff applies only to network-wide floods.
		d.ttl = c.proto.WidenTTL(d.ttl)
		c.proto.SendRequest(dst, d.ttl)
		d.timer.Reset(c.cfg.DiscoveryTimeout)
		return
	}
	if d.retries >= c.cfg.Retries {
		delete(c.pending, dst)
		c.Stats.DiscoveryErr++
		for _, pkt := range d.buffer {
			c.out.DropData(pkt, "no route after retries")
		}
		return
	}
	d.retries++
	c.proto.SendRequest(dst, 0)
	d.timer.Reset(c.cfg.DiscoveryTimeout << uint(d.retries))
}

// Complete ends the discovery for dst when its reply reaches this node,
// the originator, and hands back the packets buffered for dst in arrival
// order. It reports false when no discovery for dst was pending.
func (c *Core) Complete(dst packet.NodeID) ([]*packet.Packet, bool) {
	d := c.pending[dst]
	if d == nil {
		return nil, false
	}
	delete(c.pending, dst)
	d.timer.Stop()
	c.Stats.DiscoveryOK++
	return d.buffer, true
}

// Reset wipes the volatile state, as a node crash would: in-flight
// discoveries (timers stopped, buffered packets dropped in destination
// order) and the duplicate-request cache; request IDs restart from zero
// like a cold boot. Stats survive.
func (c *Core) Reset() {
	dsts := make([]packet.NodeID, 0, len(c.pending))
	for dst := range c.pending {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		d := c.pending[dst]
		d.timer.Stop()
		for _, pkt := range d.buffer {
			c.out.DropData(pkt, "router reset")
		}
	}
	c.seen = newSeenCache(c.cfg.SeenCacheSize)
	c.pending = make(map[packet.NodeID]*discovery)
	c.rreqID = 0
}

// NewRequest numbers a route request this node originates, counts it,
// and marks it seen so the flood's copies coming back are suppressed.
func (c *Core) NewRequest() uint32 {
	c.rreqID++
	c.seen.add(rreqKey{src: c.self, id: c.rreqID})
	c.Stats.RREQSent++
	return c.rreqID
}

// Duplicate reports whether the request (src, id) was seen before, and
// remembers it.
func (c *Core) Duplicate(src packet.NodeID, id uint32) bool {
	key := rreqKey{src: src, id: id}
	if c.seen.has(key) {
		return true
	}
	c.seen.add(key)
	return false
}

// Rebroadcast sends a received request on after a random delay of up to
// BroadcastJitter, de-synchronizing the flood among neighbours.
func (c *Core) Rebroadcast(payload any, size int) {
	jitter := sim.Time(0)
	if c.cfg.BroadcastJitter > 0 {
		jitter = sim.Time(c.sim.Rand().Int63n(int64(c.cfg.BroadcastJitter)))
	}
	c.sim.Schedule(jitter, func() {
		c.Stats.RREQSent++
		c.Broadcast(payload, size)
	})
}

// Broadcast sends a routing message of size bytes to every neighbour.
func (c *Core) Broadcast(payload any, size int) {
	c.out.SendRouting(c.Packet(payload, size, packet.Broadcast), packet.Broadcast)
}

// Packet wraps a routing message of size bytes, plus the IP header, for
// the MAC destination macDst.
func (c *Core) Packet(payload any, size int, macDst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		UID:     c.ids.Next(),
		Kind:    packet.KindRouting,
		Src:     c.self,
		Dst:     macDst,
		TTL:     32,
		Size:    size + packet.IPHeaderSize,
		MACSrc:  c.self,
		MACDst:  macDst,
		Payload: payload,
	}
}

type rreqKey struct {
	src packet.NodeID
	id  uint32
}

// seenCache is a bounded duplicate-request suppression set with FIFO
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
