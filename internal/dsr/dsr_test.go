package dsr

import (
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

type stubOut struct {
	routing []sentMsg
	fwd     []sentMsg
	dropped []droppedMsg
}

type sentMsg struct {
	pkt     *packet.Packet
	nextHop packet.NodeID
}

type droppedMsg struct {
	pkt    *packet.Packet
	reason string
}

func (o *stubOut) SendRouting(p *packet.Packet, nh packet.NodeID) {
	o.routing = append(o.routing, sentMsg{p, nh})
}
func (o *stubOut) ForwardData(p *packet.Packet, nh packet.NodeID) {
	o.fwd = append(o.fwd, sentMsg{p, nh})
}
func (o *stubOut) DropData(p *packet.Packet, reason string) {
	o.dropped = append(o.dropped, droppedMsg{p, reason})
}

func newRouter(t *testing.T, self packet.NodeID) (*sim.Simulator, *Router, *stubOut) {
	t.Helper()
	s := sim.New(1)
	out := &stubOut{}
	var ids packet.IDGen
	r, err := New(s, self, out, &ids, ondemand.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, r, out
}

func dataTo(dst packet.NodeID) *packet.Packet {
	return &packet.Packet{Kind: packet.KindData, Src: 0, Dst: dst, Size: 1500}
}

func route(ids ...packet.NodeID) []packet.NodeID { return ids }

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRoutesPerDst = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero MaxRoutesPerDst accepted")
	}
	var ids packet.IDGen
	if _, err := New(sim.New(1), 0, &stubOut{}, &ids, ondemand.DefaultConfig(), cfg); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

func TestDiscoveryStartsOnMissingRoute(t *testing.T) {
	_, r, out := newRouter(t, 0)
	r.SendData(dataTo(4))
	if len(out.routing) != 1 {
		t.Fatalf("routing msgs = %d, want 1 RREQ", len(out.routing))
	}
	req, ok := out.routing[0].pkt.Payload.(*RouteRequest)
	if !ok || req.Src != 0 || req.Dst != 4 || len(req.Path) != 0 {
		t.Fatalf("RREQ = %+v", out.routing[0].pkt.Payload)
	}
	if out.routing[0].nextHop != packet.Broadcast {
		t.Fatal("RREQ must broadcast")
	}
}

func TestIntermediateAppendsSelfAndRefloods(t *testing.T) {
	s, r, out := newRouter(t, 2)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RouteRequest{ID: 1, Src: 0, Dst: 4, Path: route(1)},
	})
	if len(out.routing) != 0 {
		t.Fatal("re-flood not jittered")
	}
	s.Run(sim.Second)
	if len(out.routing) != 1 {
		t.Fatalf("re-floods = %d", len(out.routing))
	}
	fwd := out.routing[0].pkt.Payload.(*RouteRequest)
	if len(fwd.Path) != 2 || fwd.Path[1] != 2 {
		t.Fatalf("path = %v, want [1 2]", fwd.Path)
	}
	// Duplicate flood suppressed.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RouteRequest{ID: 1, Src: 0, Dst: 4, Path: route(3)},
	})
	s.Run(2 * sim.Second)
	if len(out.routing) != 1 {
		t.Fatal("duplicate RREQ re-flooded")
	}
}

func TestDestinationReplies(t *testing.T) {
	_, r, out := newRouter(t, 4)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RouteRequest{ID: 1, Src: 0, Dst: 4, Path: route(1, 2, 3)},
	})
	if len(out.routing) != 1 {
		t.Fatalf("msgs = %d, want 1 RREP", len(out.routing))
	}
	m := out.routing[0]
	rep, ok := m.pkt.Payload.(*RouteReply)
	if !ok {
		t.Fatalf("payload = %T", m.pkt.Payload)
	}
	wantRoute := route(0, 1, 2, 3, 4)
	if !routesEqual(rep.Route, wantRoute) {
		t.Fatalf("RREP route = %v, want %v", rep.Route, wantRoute)
	}
	// Reply travels the reverse path: first hop is node 3.
	if m.nextHop != 3 {
		t.Fatalf("RREP next hop = %v, want n3", m.nextHop)
	}
	if !routesEqual(m.pkt.SrcRoute, route(4, 3, 2, 1, 0)) {
		t.Fatalf("RREP source route = %v", m.pkt.SrcRoute)
	}
}

func TestReplyRelayedAlongSourceRoute(t *testing.T) {
	_, r, out := newRouter(t, 3)
	rep := &RouteReply{Src: 0, Dst: 4, Route: route(0, 1, 2, 3, 4)}
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 4, Payload: rep,
		SrcRoute: route(4, 3, 2, 1, 0), RouteHop: 1,
	})
	if len(out.routing) != 1 || out.routing[0].nextHop != 2 {
		t.Fatalf("relay = %+v", out.routing)
	}
	// The relay also learns the route toward the destination.
	if got, ok := r.BestRoute(4); !ok || !routesEqual(got, route(3, 4)) {
		t.Fatalf("learned route = %v, %v", got, ok)
	}
}

func TestOriginatorFlushesBufferOnReply(t *testing.T) {
	_, r, out := newRouter(t, 0)
	p1, p2 := dataTo(4), dataTo(4)
	r.SendData(p1)
	r.SendData(p2)

	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload:  &RouteReply{Src: 0, Dst: 4, Route: route(0, 1, 2, 3, 4)},
		SrcRoute: route(4, 3, 2, 1, 0), RouteHop: 4,
	})
	if len(out.fwd) != 2 {
		t.Fatalf("flushed = %d, want 2", len(out.fwd))
	}
	for _, f := range out.fwd {
		if f.nextHop != 1 {
			t.Fatalf("next hop = %v, want n1", f.nextHop)
		}
		if !routesEqual(f.pkt.SrcRoute, route(0, 1, 2, 3, 4)) {
			t.Fatalf("source route = %v", f.pkt.SrcRoute)
		}
		if f.pkt.RouteHop != 1 {
			t.Fatalf("route hop = %d, want 1", f.pkt.RouteHop)
		}
	}
	// Route header overhead added to the packet size.
	if out.fwd[0].pkt.Size != 1500+5*srcRouteByte {
		t.Fatalf("size with route = %d", out.fwd[0].pkt.Size)
	}
	if r.Stats().DiscoveryOK != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestCachedRouteSkipsDiscovery(t *testing.T) {
	_, r, out := newRouter(t, 0)
	r.learnRoute(route(0, 1, 2, 4))
	r.SendData(dataTo(4))
	if len(out.routing) != 0 {
		t.Fatal("discovery started despite cached route")
	}
	if len(out.fwd) != 1 || out.fwd[0].nextHop != 1 {
		t.Fatalf("fwd = %+v", out.fwd)
	}
}

func TestIntermediateForwardsAlongRoute(t *testing.T) {
	_, r, out := newRouter(t, 2)
	pkt := dataTo(4)
	pkt.SrcRoute = route(0, 1, 2, 3, 4)
	pkt.RouteHop = 2 // we are SrcRoute[2]
	r.SendData(pkt)
	if len(out.fwd) != 1 || out.fwd[0].nextHop != 3 {
		t.Fatalf("fwd = %+v", out.fwd)
	}
	if pkt.RouteHop != 3 {
		t.Fatalf("route hop = %d, want 3", pkt.RouteHop)
	}
}

func TestBestRoutePrefersShortest(t *testing.T) {
	_, r, _ := newRouter(t, 0)
	r.learnRoute(route(0, 1, 2, 3, 4))
	r.learnRoute(route(0, 5, 4))
	got, ok := r.BestRoute(4)
	if !ok || !routesEqual(got, route(0, 5, 4)) {
		t.Fatalf("best route = %v", got)
	}
	// Prefixes were learned too.
	if got, ok := r.BestRoute(2); !ok || !routesEqual(got, route(0, 1, 2)) {
		t.Fatalf("prefix route = %v, %v", got, ok)
	}
}

func TestCacheCapAndEviction(t *testing.T) {
	_, r, _ := newRouter(t, 0)
	r.learnRoute(route(0, 1, 9))
	r.learnRoute(route(0, 2, 3, 9))
	r.learnRoute(route(0, 4, 5, 6, 9))
	r.learnRoute(route(0, 7, 8, 10, 11, 9))
	if got := len(r.cache[9]); got != DefaultConfig().MaxRoutesPerDst {
		t.Fatalf("cache size = %d", got)
	}
	// A shorter newcomer evicts the longest entry (the 6-node route).
	r.learnRoute(route(0, 12, 9))
	haveNew := false
	for _, rt := range r.cache[9] {
		if len(rt) == 6 {
			t.Fatalf("longest route survived eviction: %v", r.cache[9])
		}
		if routesEqual(rt, route(0, 12, 9)) {
			haveNew = true
		}
	}
	if !haveNew {
		t.Fatalf("newcomer not cached: %v", r.cache[9])
	}
}

func TestLinkFailurePurgesAndSalvages(t *testing.T) {
	_, r, out := newRouter(t, 0)
	r.learnRoute(route(0, 1, 2, 4))
	r.learnRoute(route(0, 3, 4))
	pkt := dataTo(4)
	r.SendData(pkt) // uses shortest: 0-3-4
	out.fwd = nil

	r.LinkFailure(3, pkt)
	// Route via 3 purged; packet salvaged over 0-1-2-4.
	if len(out.fwd) != 1 || out.fwd[0].nextHop != 1 {
		t.Fatalf("salvage = %+v", out.fwd)
	}
	if _, ok := r.BestRoute(3); ok {
		t.Fatal("route to broken neighbour survived")
	}
}

func TestLinkFailureAtIntermediateSendsRERR(t *testing.T) {
	_, r, out := newRouter(t, 2)
	pkt := dataTo(4)
	pkt.Src = 0
	pkt.SrcRoute = route(0, 1, 2, 3, 4)
	pkt.RouteHop = 3 // already advanced past us

	r.LinkFailure(3, pkt)
	// A route error travels back along 2-1-0.
	found := false
	for _, m := range out.routing {
		if rerr, ok := m.pkt.Payload.(*RouteError); ok {
			found = true
			if rerr.From != 2 || rerr.To != 3 {
				t.Fatalf("RERR = %+v", rerr)
			}
			if m.nextHop != 1 {
				t.Fatalf("RERR next hop = %v", m.nextHop)
			}
			if !routesEqual(m.pkt.SrcRoute, route(2, 1, 0)) {
				t.Fatalf("RERR route = %v", m.pkt.SrcRoute)
			}
		}
	}
	if !found {
		t.Fatal("no RERR generated")
	}
}

func TestRERRPurgesCacheAndRelays(t *testing.T) {
	_, r, out := newRouter(t, 1)
	r.learnRoute(route(1, 2, 3, 4))
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 2,
		Payload:  &RouteError{From: 2, To: 3},
		SrcRoute: route(2, 1, 0), RouteHop: 1,
	})
	if _, ok := r.BestRoute(4); ok {
		t.Fatal("route over broken link survived RERR")
	}
	// Still have the 1-2 prefix (link 2->3 broke, not 1->2).
	if _, ok := r.BestRoute(2); !ok {
		t.Fatal("unrelated prefix purged")
	}
	if len(out.routing) != 1 || out.routing[0].nextHop != 0 {
		t.Fatalf("RERR relay = %+v", out.routing)
	}
}

func TestDiscoveryRetryAndFailure(t *testing.T) {
	s, r, out := newRouter(t, 0)
	pkt := dataTo(9)
	r.SendData(pkt)
	s.Run(30 * sim.Second)

	rreqs := 0
	for _, m := range out.routing {
		if _, ok := m.pkt.Payload.(*RouteRequest); ok {
			rreqs++
		}
	}
	if want := 1 + ondemand.DefaultConfig().Retries; rreqs != want {
		t.Fatalf("RREQ attempts = %d, want %d", rreqs, want)
	}
	if len(out.dropped) != 1 || out.dropped[0].reason != "no route after retries" {
		t.Fatalf("drops = %+v", out.dropped)
	}
	if r.Stats().DiscoveryErr != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestBufferOverflow(t *testing.T) {
	_, r, out := newRouter(t, 0)
	for i := 0; i < ondemand.DefaultConfig().MaxBuffered+3; i++ {
		r.SendData(dataTo(9))
	}
	if len(out.dropped) != 3 {
		t.Fatalf("dropped = %d, want 3", len(out.dropped))
	}
}

func TestRouteHelpers(t *testing.T) {
	if got := routeFrom(route(0, 1, 2, 3), 2); !routesEqual(got, route(2, 3)) {
		t.Fatalf("routeFrom = %v", got)
	}
	if routeFrom(route(0, 1), 9) != nil {
		t.Fatal("routeFrom found absent node")
	}
	if got := reversePrefix(route(0, 1, 2, 3), 2); !routesEqual(got, route(2, 1, 0)) {
		t.Fatalf("reversePrefix = %v", got)
	}
	if reversePrefix(route(0, 1), 9) != nil {
		t.Fatal("reversePrefix found absent node")
	}
	if !routeUsesLink(route(0, 1, 2), 1, 2) || routeUsesLink(route(0, 1, 2), 2, 1) {
		t.Fatal("routeUsesLink direction wrong")
	}
}

func TestMessageCloning(t *testing.T) {
	req := &RouteRequest{ID: 1, Src: 0, Dst: 4, Path: route(1, 2)}
	c := req.ClonePayload().(*RouteRequest)
	c.Path[0] = 9
	if req.Path[0] != 1 {
		t.Fatal("RouteRequest clone aliases path")
	}
	rep := &RouteReply{Src: 0, Dst: 4, Route: route(0, 1, 4)}
	c2 := rep.ClonePayload().(*RouteReply)
	c2.Route[0] = 9
	if rep.Route[0] != 0 {
		t.Fatal("RouteReply clone aliases route")
	}
	rerr := &RouteError{From: 1, To: 2}
	c3 := rerr.ClonePayload().(*RouteError)
	c3.From = 9
	if rerr.From != 1 {
		t.Fatal("RouteError clone aliases")
	}
}

func TestSizesGrowWithPath(t *testing.T) {
	short := &RouteRequest{Path: route(1)}
	long := &RouteRequest{Path: route(1, 2, 3)}
	if long.size() <= short.size() {
		t.Fatal("RREQ size does not grow with path")
	}
	rep := &RouteReply{Route: route(0, 1, 2)}
	if rep.size() != rrepBase+3*perHopBytes {
		t.Fatalf("RREP size = %d", rep.size())
	}
}

// Reset, as a crash does, drops the buffered packets in destination
// order, stops the discovery timers and empties the route cache; the
// request IDs restart from one.
func TestResetDropsPendingDiscoveries(t *testing.T) {
	s, r, out := newRouter(t, 0)
	r.learnRoute(route(0, 1, 2))
	r.SendData(dataTo(9))
	r.SendData(dataTo(5))
	r.SendData(dataTo(9))
	if len(out.routing) != 2 {
		t.Fatalf("started %d discoveries, want 2", len(out.routing))
	}

	r.Reset()
	want := []packet.NodeID{5, 9, 9}
	if len(out.dropped) != len(want) {
		t.Fatalf("reset dropped %d packets, want %d", len(out.dropped), len(want))
	}
	for i, d := range out.dropped {
		if d.pkt.Dst != want[i] || d.reason != "router reset" {
			t.Fatalf("drop %d = dst %v %q, want dst %v router reset", i, d.pkt.Dst, d.reason, want[i])
		}
	}
	before := len(out.routing)
	s.Run(30 * sim.Second)
	if len(out.routing) != before {
		t.Fatal("discovery retries survived Reset")
	}
	if _, ok := r.BestRoute(2); ok {
		t.Fatal("route cache survived Reset")
	}
	r.SendData(dataTo(2))
	req, ok := out.routing[len(out.routing)-1].pkt.Payload.(*RouteRequest)
	if !ok || req.ID != 1 {
		t.Fatalf("first request after Reset = %+v, want ID 1", out.routing[len(out.routing)-1].pkt.Payload)
	}
}
