// Package dsr implements Dynamic Source Routing (Johnson & Maltz), the
// other classical on-demand MANET protocol, as an alternative to AODV for
// the routing-protocol ablation. Route requests flood and accumulate the
// traversed path; the destination reverses it into a route reply; data
// packets then carry the full source route. Nodes keep a route cache and
// remove routes crossing a broken link when the MAC reports a failure.
// Route discovery — the send buffer, request retries with binary
// exponential backoff, the jittered re-flood and the duplicate cache —
// is internal/ondemand's, shared with AODV; DSR has no expanding ring.
package dsr

import (
	"fmt"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Message sizes in bytes: fixed header plus 4 bytes per recorded hop.
const (
	rreqBase     = 12
	rrepBase     = 12
	rerrSize     = 16
	perHopBytes  = 4
	srcRouteByte = 4 // per-hop source-route header overhead on data
)

// RouteRequest floods toward Dst, accumulating the traversed path
// (excluding Src itself).
type RouteRequest struct {
	ID   uint32
	Src  packet.NodeID
	Dst  packet.NodeID
	Path []packet.NodeID // nodes traversed after Src
}

// ClonePayload implements packet.Cloner.
func (r *RouteRequest) ClonePayload() any {
	c := RouteRequest{ID: r.ID, Src: r.Src, Dst: r.Dst}
	c.Path = make([]packet.NodeID, len(r.Path))
	copy(c.Path, r.Path)
	return &c
}

func (r *RouteRequest) size() int { return rreqBase + perHopBytes*len(r.Path) }

// RouteReply carries the complete route Src..Dst back to the originator.
type RouteReply struct {
	Src   packet.NodeID
	Dst   packet.NodeID
	Route []packet.NodeID // full path: Route[0]==Src, Route[last]==Dst
}

// ClonePayload implements packet.Cloner.
func (r *RouteReply) ClonePayload() any {
	c := RouteReply{Src: r.Src, Dst: r.Dst}
	c.Route = make([]packet.NodeID, len(r.Route))
	copy(c.Route, r.Route)
	return &c
}

func (r *RouteReply) size() int { return rrepBase + perHopBytes*len(r.Route) }

// RouteError reports the broken link From->To back toward the source.
type RouteError struct {
	From packet.NodeID
	To   packet.NodeID
}

// ClonePayload implements packet.Cloner.
func (r *RouteError) ClonePayload() any {
	c := *r
	return &c
}

// DefaultMaxCacheDsts is the route-cache bound applied when
// Config.MaxCacheDsts is zero. It is far above anything the paper's
// scenarios reach, so eviction never fires there.
const DefaultMaxCacheDsts = 1024

// Config holds the DSR-only parameters; the discovery parameters are the
// ondemand.Config passed to New alongside, the same block AODV uses, for
// a fair comparison.
type Config struct {
	// MaxRoutesPerDst bounds the route cache fan-out.
	MaxRoutesPerDst int
	// MaxCacheDsts bounds how many destinations the route cache holds;
	// the oldest-inserted destination is evicted first. Zero selects
	// DefaultMaxCacheDsts. Without a bound, learning every prefix of
	// every overheard route grows the cache O(N) dsts x O(N) hops.
	MaxCacheDsts int
}

// DefaultConfig returns the DSR defaults.
func DefaultConfig() Config {
	return Config{MaxRoutesPerDst: 4}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MaxRoutesPerDst < 1:
		return fmt.Errorf("dsr: MaxRoutesPerDst must be >= 1, got %d", c.MaxRoutesPerDst)
	case c.MaxCacheDsts < 0:
		return fmt.Errorf("dsr: MaxCacheDsts must be >= 0, got %d", c.MaxCacheDsts)
	}
	return nil
}

// Router is one node's DSR instance.
type Router struct {
	self packet.NodeID
	out  ondemand.Output
	cfg  Config
	od   *ondemand.Core

	cache      map[packet.NodeID][][]packet.NodeID // dst -> candidate routes
	cacheOrder []packet.NodeID                     // dst insertion order for eviction
}

// New creates a DSR router for node self. ids must be the
// simulation-wide packet ID generator; disc holds the route-discovery
// parameters.
func New(s *sim.Simulator, self packet.NodeID, out ondemand.Output, ids *packet.IDGen, disc ondemand.Config, cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCacheDsts == 0 {
		cfg.MaxCacheDsts = DefaultMaxCacheDsts
	}
	r := &Router{
		self:  self,
		out:   out,
		cfg:   cfg,
		cache: make(map[packet.NodeID][][]packet.NodeID),
	}
	od, err := ondemand.New(s, self, out, ids, disc, r)
	if err != nil {
		return nil, err
	}
	r.od = od
	return r, nil
}

// Stats returns a copy of the counters.
func (r *Router) Stats() ondemand.Stats { return r.od.Stats }

// Reset wipes all volatile protocol state, as a node crash would: the
// route cache, duplicate-suppression set, and in-flight discoveries
// (timers stopped, buffered packets dropped). Cumulative stats survive.
func (r *Router) Reset() {
	r.od.Reset()
	r.cache = make(map[packet.NodeID][][]packet.NodeID)
	r.cacheOrder = nil
}

// BestRoute returns the shortest cached route to dst (full path
// self..dst) and whether one exists.
func (r *Router) BestRoute(dst packet.NodeID) ([]packet.NodeID, bool) {
	routes := r.cache[dst]
	if len(routes) == 0 {
		return nil, false
	}
	best := routes[0]
	for _, rt := range routes[1:] {
		if len(rt) < len(best) {
			best = rt
		}
	}
	return best, true
}

// SendData routes a data packet. Freshly originated packets get a source
// route attached; packets already carrying a route advance along it.
func (r *Router) SendData(pkt *packet.Packet) {
	if len(pkt.SrcRoute) > 0 && pkt.Src != r.self {
		// In-transit source-routed packet: advance one hop.
		r.forwardAlongRoute(pkt)
		return
	}
	route, ok := r.BestRoute(pkt.Dst)
	if !ok {
		r.od.Buffer(pkt)
		return
	}
	r.attachRoute(pkt, route)
	r.forwardAlongRoute(pkt)
}

// attachRoute stamps a source route onto a packet, adjusting the byte
// size for the per-hop route header (replacing any previous route's
// overhead).
func (r *Router) attachRoute(pkt *packet.Packet, route []packet.NodeID) {
	pkt.Size -= srcRouteByte * len(pkt.SrcRoute)
	pkt.SrcRoute = append([]packet.NodeID(nil), route...)
	pkt.RouteHop = 0
	pkt.Size += srcRouteByte * len(route)
}

// forwardAlongRoute transmits the packet to the next node on its source
// route. The route invariant: SrcRoute[RouteHop] == this node.
func (r *Router) forwardAlongRoute(pkt *packet.Packet) {
	idx := pkt.RouteHop
	if idx >= len(pkt.SrcRoute) || pkt.SrcRoute[idx] != r.self {
		// Stale or corrupt route state; resolve locally.
		if route, ok := r.BestRoute(pkt.Dst); ok {
			r.attachRoute(pkt, route)
			idx = 0
		} else {
			r.od.Buffer(pkt)
			return
		}
	}
	if idx+1 >= len(pkt.SrcRoute) {
		r.out.DropData(pkt, "source route exhausted")
		return
	}
	pkt.RouteHop++
	r.out.ForwardData(pkt, pkt.SrcRoute[idx+1])
}

// FirstTTL implements ondemand.Protocol: DSR has no expanding ring, so
// every request floods network-wide.
func (r *Router) FirstTTL(packet.NodeID) int { return 0 }

// WidenTTL implements ondemand.Protocol; with no ring it is never asked.
func (r *Router) WidenTTL(int) int { return 0 }

// SendRequest implements ondemand.Protocol: it floods a route request
// for dst with an empty recorded path.
func (r *Router) SendRequest(dst packet.NodeID, _ int) {
	req := &RouteRequest{ID: r.od.NewRequest(), Src: r.self, Dst: dst}
	r.od.Broadcast(req, req.size())
}

// HandleRouting processes a received DSR message.
func (r *Router) HandleRouting(pkt *packet.Packet) {
	switch msg := pkt.Payload.(type) {
	case *RouteRequest:
		r.handleRREQ(msg)
	case *RouteReply:
		r.handleRREP(pkt, msg)
	case *RouteError:
		r.handleRERR(pkt, msg)
	}
}

func (r *Router) handleRREQ(req *RouteRequest) {
	if r.od.Duplicate(req.Src, req.ID) {
		return
	}

	// Learn the reverse route back to the originator.
	reverse := make([]packet.NodeID, 0, len(req.Path)+2)
	reverse = append(reverse, r.self)
	for i := len(req.Path) - 1; i >= 0; i-- {
		reverse = append(reverse, req.Path[i])
	}
	reverse = append(reverse, req.Src)
	r.learnRoute(reverse)

	if req.Dst == r.self {
		// Build the forward route Src..self and reply along its reverse.
		forward := make([]packet.NodeID, 0, len(req.Path)+2)
		forward = append(forward, req.Src)
		forward = append(forward, req.Path...)
		forward = append(forward, r.self)
		rep := &RouteReply{Src: req.Src, Dst: r.self, Route: forward}
		r.sendReply(rep, reverse)
		return
	}

	// Re-flood with ourselves appended, after jitter.
	fwd := req.ClonePayload().(*RouteRequest)
	fwd.Path = append(fwd.Path, r.self)
	r.od.Rebroadcast(fwd, fwd.size())
}

// sendReply source-routes a route reply along the given path (starting at
// this node).
func (r *Router) sendReply(rep *RouteReply, path []packet.NodeID) {
	if len(path) < 2 {
		return
	}
	pkt := r.od.Packet(rep, rep.size(), path[1])
	pkt.SrcRoute = append([]packet.NodeID(nil), path...)
	pkt.RouteHop = 1
	pkt.Dst = path[len(path)-1]
	r.od.Stats.RREPSent++
	r.out.SendRouting(pkt, path[1])
}

func (r *Router) handleRREP(pkt *packet.Packet, rep *RouteReply) {
	r.learnRoute(routeFrom(rep.Route, r.self))

	if rep.Src == r.self {
		buf, ok := r.od.Complete(rep.Dst)
		if !ok {
			return
		}
		route, ok := r.BestRoute(rep.Dst)
		for _, p := range buf {
			if ok {
				r.attachRoute(p, route)
				r.forwardAlongRoute(p)
			} else {
				r.out.DropData(p, "route vanished after reply")
			}
		}
		return
	}

	// Relay the reply along its source route.
	idx := pkt.RouteHop
	if idx < len(pkt.SrcRoute) && pkt.SrcRoute[idx] == r.self && idx+1 < len(pkt.SrcRoute) {
		pkt.RouteHop++
		r.out.SendRouting(pkt, pkt.SrcRoute[idx+1])
	}
}

func (r *Router) handleRERR(pkt *packet.Packet, rerr *RouteError) {
	r.purgeLink(rerr.From, rerr.To)
	// Relay toward the source-route end.
	idx := pkt.RouteHop
	if idx < len(pkt.SrcRoute) && pkt.SrcRoute[idx] == r.self && idx+1 < len(pkt.SrcRoute) {
		pkt.RouteHop++
		r.out.SendRouting(pkt, pkt.SrcRoute[idx+1])
	}
}

// LinkFailure handles MAC retry exhaustion toward nextHop: the link is
// purged from the cache, a route error travels back to the packet's
// source, and the packet is salvaged over an alternative route when one
// is cached.
func (r *Router) LinkFailure(nextHop packet.NodeID, failed *packet.Packet) {
	r.od.Stats.LinkFailures++
	r.purgeLink(r.self, nextHop)
	if failed == nil || failed.Kind != packet.KindData {
		return
	}
	// Route error back to the source along the reversed route prefix.
	if failed.Src != r.self && len(failed.SrcRoute) > 0 {
		if prefix := reversePrefix(failed.SrcRoute, r.self); len(prefix) >= 2 {
			rerr := &RouteError{From: r.self, To: nextHop}
			pkt := r.od.Packet(rerr, rerrSize, prefix[1])
			pkt.SrcRoute = prefix
			pkt.RouteHop = 1
			pkt.Dst = prefix[len(prefix)-1]
			r.od.Stats.RERRSent++
			r.out.SendRouting(pkt, prefix[1])
		}
	}
	// Salvage: retry over another cached route or rediscover.
	failed.RouteHop = 0
	r.attachRoute(failed, nil)
	r.SendData(failed)
}

// learnRoute caches the route (self..dst) and every prefix of it.
func (r *Router) learnRoute(route []packet.NodeID) {
	if len(route) < 2 || route[0] != r.self {
		return
	}
	for end := 2; end <= len(route); end++ {
		sub := route[:end]
		dst := sub[end-1]
		if r.hasRoute(dst, sub) {
			continue
		}
		routes := r.cache[dst]
		if len(routes) >= r.cfg.MaxRoutesPerDst {
			// Evict the longest.
			worst := 0
			for i, rt := range routes {
				if len(rt) > len(routes[worst]) {
					worst = i
				}
			}
			if len(routes[worst]) <= end {
				continue // new route is no better
			}
			routes[worst] = append([]packet.NodeID(nil), sub...)
			r.cache[dst] = routes
			continue
		}
		if len(routes) == 0 {
			r.admitDst(dst)
		}
		r.cache[dst] = append(r.cache[dst], append([]packet.NodeID(nil), sub...))
	}
}

// admitDst records a new cache destination's insertion order and evicts
// the oldest destination when the cache is at MaxCacheDsts. Entries for
// destinations that purgeLink already removed are skipped lazily; the
// order list is compacted when stale entries pile up, keeping it O(cap).
func (r *Router) admitDst(dst packet.NodeID) {
	for len(r.cache) >= r.cfg.MaxCacheDsts && len(r.cacheOrder) > 0 {
		old := r.cacheOrder[0]
		r.cacheOrder = r.cacheOrder[1:]
		if _, ok := r.cache[old]; ok {
			delete(r.cache, old)
		}
	}
	if len(r.cacheOrder)+1 >= 2*r.cfg.MaxCacheDsts {
		live := r.cacheOrder[:0]
		seen := make(map[packet.NodeID]bool, len(r.cache))
		for _, d := range r.cacheOrder {
			if _, ok := r.cache[d]; ok && !seen[d] {
				seen[d] = true
				live = append(live, d)
			}
		}
		r.cacheOrder = append([]packet.NodeID(nil), live...)
	}
	r.cacheOrder = append(r.cacheOrder, dst)
}

func (r *Router) hasRoute(dst packet.NodeID, route []packet.NodeID) bool {
	for _, rt := range r.cache[dst] {
		if routesEqual(rt, route) {
			return true
		}
	}
	return false
}

// purgeLink removes every cached route that traverses the directed link
// from->to.
func (r *Router) purgeLink(from, to packet.NodeID) {
	for dst, routes := range r.cache {
		kept := routes[:0]
		for _, rt := range routes {
			if !routeUsesLink(rt, from, to) {
				kept = append(kept, rt)
			}
		}
		if len(kept) == 0 {
			delete(r.cache, dst)
		} else {
			r.cache[dst] = kept
		}
	}
}

// routeFrom extracts the sub-route starting at node from a full route,
// or nil if the node is not on it.
func routeFrom(route []packet.NodeID, node packet.NodeID) []packet.NodeID {
	for i, n := range route {
		if n == node {
			return route[i:]
		}
	}
	return nil
}

// reversePrefix returns the reversed prefix of route ending at node
// (inclusive): the path from node back to route[0].
func reversePrefix(route []packet.NodeID, node packet.NodeID) []packet.NodeID {
	idx := -1
	for i, n := range route {
		if n == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]packet.NodeID, 0, idx+1)
	for i := idx; i >= 0; i-- {
		out = append(out, route[i])
	}
	return out
}

func routesEqual(a, b []packet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func routeUsesLink(route []packet.NodeID, from, to packet.NodeID) bool {
	for i := 0; i+1 < len(route); i++ {
		if route[i] == from && route[i+1] == to {
			return true
		}
	}
	return false
}
