package aodv

import (
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// stubOut records router output.
type stubOut struct {
	routing []routedMsg
	fwd     []fwdMsg
	dropped []*packet.Packet
}

type routedMsg struct {
	pkt     *packet.Packet
	nextHop packet.NodeID
}

type fwdMsg struct {
	pkt     *packet.Packet
	nextHop packet.NodeID
}

func (o *stubOut) SendRouting(p *packet.Packet, nh packet.NodeID) {
	o.routing = append(o.routing, routedMsg{p, nh})
}
func (o *stubOut) ForwardData(p *packet.Packet, nh packet.NodeID) {
	o.fwd = append(o.fwd, fwdMsg{p, nh})
}
func (o *stubOut) DropData(p *packet.Packet, reason string) {
	o.dropped = append(o.dropped, p)
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
	return &packet.Packet{Kind: packet.KindData, Dst: dst, Size: 1000}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActiveRouteTimeout = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero ActiveRouteTimeout accepted")
	}
	var ids packet.IDGen
	if _, err := New(sim.New(1), 0, &stubOut{}, &ids, ondemand.DefaultConfig(), cfg); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

func TestSendDataWithoutRouteStartsDiscovery(t *testing.T) {
	_, r, out := newRouter(t, 0)
	pkt := dataTo(4)
	r.SendData(pkt)

	if len(out.routing) != 1 {
		t.Fatalf("routing messages = %d, want 1 RREQ", len(out.routing))
	}
	req, ok := out.routing[0].pkt.Payload.(*RREQ)
	if !ok {
		t.Fatalf("payload is %T, want *RREQ", out.routing[0].pkt.Payload)
	}
	if req.Src != 0 || req.Dst != 4 || req.HopCount != 0 {
		t.Fatalf("RREQ = %+v", req)
	}
	if out.routing[0].nextHop != packet.Broadcast {
		t.Fatal("RREQ must be broadcast")
	}
	if len(out.fwd) != 0 {
		t.Fatal("data forwarded before route exists")
	}
}

func TestRREPCompletesDiscoveryAndFlushesBuffer(t *testing.T) {
	_, r, out := newRouter(t, 0)
	p1, p2 := dataTo(4), dataTo(4)
	r.SendData(p1)
	r.SendData(p2)
	if len(out.routing) != 1 {
		t.Fatalf("second SendData started a second discovery: %d msgs", len(out.routing))
	}

	// RREP for destination 4 arrives via neighbour 1.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 0, Dst: 4, DstSeq: 1, HopCount: 3},
	})

	if len(out.fwd) != 2 {
		t.Fatalf("flushed %d packets, want 2", len(out.fwd))
	}
	for _, f := range out.fwd {
		if f.nextHop != 1 {
			t.Fatalf("flushed via %v, want n1", f.nextHop)
		}
	}
	if nh, ok := r.NextHop(4); !ok || nh != 1 {
		t.Fatalf("route after RREP: nh=%v ok=%v", nh, ok)
	}
	if r.HopCount(4) != 4 {
		t.Fatalf("hop count = %d, want 4 (3+1)", r.HopCount(4))
	}
	st := r.Stats()
	if st.Discoveries != 1 || st.DiscoveryOK != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendDataWithRouteForwardsDirectly(t *testing.T) {
	_, r, out := newRouter(t, 0)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 0, Dst: 4, DstSeq: 1, HopCount: 3},
	})
	out.fwd = nil

	pkt := dataTo(4)
	r.SendData(pkt)
	if len(out.fwd) != 1 || out.fwd[0].pkt != pkt || out.fwd[0].nextHop != 1 {
		t.Fatalf("direct forward wrong: %+v", out.fwd)
	}
}

func TestDiscoveryRetriesThenFails(t *testing.T) {
	s, r, out := newRouter(t, 0)
	pkt := dataTo(9)
	r.SendData(pkt)
	s.Run(time30s())

	// 1 initial + Retries rebroadcasts.
	wantRREQ := 1 + ondemand.DefaultConfig().Retries
	got := 0
	for _, m := range out.routing {
		if _, ok := m.pkt.Payload.(*RREQ); ok {
			got++
		}
	}
	if got != wantRREQ {
		t.Fatalf("RREQ attempts = %d, want %d", got, wantRREQ)
	}
	if len(out.dropped) != 1 || out.dropped[0] != pkt {
		t.Fatalf("dropped = %d packets, want the buffered one", len(out.dropped))
	}
	if r.Stats().DiscoveryErr != 1 {
		t.Fatalf("DiscoveryErr = %d", r.Stats().DiscoveryErr)
	}
}

func time30s() sim.Time { return 30 * sim.Second }

func TestBufferOverflowDrops(t *testing.T) {
	_, r, out := newRouter(t, 0)
	n := ondemand.DefaultConfig().MaxBuffered + 5
	for i := 0; i < n; i++ {
		r.SendData(dataTo(9))
	}
	if len(out.dropped) != 5 {
		t.Fatalf("dropped %d, want 5 over the buffer limit", len(out.dropped))
	}
}

func TestRREQAtDestinationGeneratesRREP(t *testing.T) {
	_, r, out := newRouter(t, 4)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RREQ{ID: 1, Src: 0, SrcSeq: 1, Dst: 4, HopCount: 3},
	})

	if len(out.routing) != 1 {
		t.Fatalf("messages = %d, want 1 RREP", len(out.routing))
	}
	rep, ok := out.routing[0].pkt.Payload.(*RREP)
	if !ok {
		t.Fatalf("payload = %T", out.routing[0].pkt.Payload)
	}
	if rep.Src != 0 || rep.Dst != 4 || rep.HopCount != 0 {
		t.Fatalf("RREP = %+v", rep)
	}
	if out.routing[0].nextHop != 3 {
		t.Fatal("RREP must unicast to the previous hop")
	}
	// Reverse route to the originator must exist.
	if nh, ok := r.NextHop(0); !ok || nh != 3 {
		t.Fatalf("reverse route: nh=%v ok=%v", nh, ok)
	}
}

func TestRREQAtIntermediateRebroadcastsWithJitter(t *testing.T) {
	s, r, out := newRouter(t, 2)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREQ{ID: 1, Src: 0, SrcSeq: 1, Dst: 4, HopCount: 1},
	})
	// Rebroadcast is jittered: nothing sent synchronously.
	if len(out.routing) != 0 {
		t.Fatal("rebroadcast was not jittered")
	}
	s.Run(ondemand.DefaultConfig().BroadcastJitter + sim.Millisecond)
	if len(out.routing) != 1 {
		t.Fatalf("rebroadcasts = %d, want 1", len(out.routing))
	}
	fwd := out.routing[0].pkt.Payload.(*RREQ)
	if fwd.HopCount != 2 {
		t.Fatalf("rebroadcast hop count = %d, want 2", fwd.HopCount)
	}
}

func TestDuplicateRREQSuppressed(t *testing.T) {
	s, r, out := newRouter(t, 2)
	req := func(from packet.NodeID, hc int) *packet.Packet {
		return &packet.Packet{
			Kind: packet.KindRouting, MACSrc: from,
			Payload: &RREQ{ID: 7, Src: 0, SrcSeq: 1, Dst: 4, HopCount: hc},
		}
	}
	r.HandleRouting(req(1, 1))
	r.HandleRouting(req(3, 2)) // same flood, different neighbour
	s.Run(sim.Second)
	if len(out.routing) != 1 {
		t.Fatalf("duplicate flood rebroadcast: %d messages", len(out.routing))
	}
}

func TestIntermediateWithFreshRouteReplies(t *testing.T) {
	_, r, out := newRouter(t, 2)
	// Install a route to 4 with seq 5.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RREP{Src: 2, Dst: 4, DstSeq: 5, HopCount: 1},
	})
	out.routing = nil

	// RREQ asking for seq >= 3: our seq-5 route qualifies.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREQ{ID: 9, Src: 0, SrcSeq: 2, Dst: 4, DstSeq: 3, DstSeqKnown: true, HopCount: 1},
	})
	if len(out.routing) != 1 {
		t.Fatalf("messages = %d, want 1 intermediate RREP", len(out.routing))
	}
	rep, ok := out.routing[0].pkt.Payload.(*RREP)
	if !ok || rep.DstSeq != 5 || rep.HopCount != 2 {
		t.Fatalf("intermediate RREP = %+v", rep)
	}
}

func TestRREPForwardedTowardOriginator(t *testing.T) {
	s, r, out := newRouter(t, 2)
	// Reverse route to originator 0 via neighbour 1, established by the
	// RREQ flood passing through.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREQ{ID: 1, Src: 0, SrcSeq: 1, Dst: 4, HopCount: 1},
	})
	s.Run(sim.Second)
	out.routing = nil

	// RREP travelling back from 4 via neighbour 3.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RREP{Src: 0, Dst: 4, DstSeq: 2, HopCount: 1},
	})
	if len(out.routing) != 1 {
		t.Fatalf("forwarded RREPs = %d, want 1", len(out.routing))
	}
	if out.routing[0].nextHop != 1 {
		t.Fatalf("RREP forwarded to %v, want n1", out.routing[0].nextHop)
	}
	rep := out.routing[0].pkt.Payload.(*RREP)
	if rep.HopCount != 2 {
		t.Fatalf("forwarded hop count = %d, want 2", rep.HopCount)
	}
	// Both directions now routed.
	if nh, ok := r.NextHop(4); !ok || nh != 3 {
		t.Fatal("forward route missing after RREP")
	}
	if nh, ok := r.NextHop(0); !ok || nh != 1 {
		t.Fatal("reverse route missing")
	}
}

func TestLinkFailureInvalidatesAndBroadcastsRERR(t *testing.T) {
	_, r, out := newRouter(t, 2)
	// Routes to 4 and 5, both via neighbour 3; route to 0 via 1.
	for _, d := range []packet.NodeID{4, 5} {
		r.HandleRouting(&packet.Packet{
			Kind: packet.KindRouting, MACSrc: 3,
			Payload: &RREP{Src: 2, Dst: d, DstSeq: 1, HopCount: 1},
		})
	}
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 2, Dst: 0, DstSeq: 1, HopCount: 1},
	})
	out.routing = nil

	r.LinkFailure(3, nil)

	if _, ok := r.NextHop(4); ok {
		t.Fatal("route via broken link still valid")
	}
	if _, ok := r.NextHop(5); ok {
		t.Fatal("second route via broken link still valid")
	}
	if _, ok := r.NextHop(0); !ok {
		t.Fatal("unrelated route was invalidated")
	}
	if len(out.routing) != 1 {
		t.Fatalf("RERRs = %d, want 1", len(out.routing))
	}
	rerr, ok := out.routing[0].pkt.Payload.(*RERR)
	if !ok || len(rerr.Unreachable) != 2 {
		t.Fatalf("RERR = %+v", out.routing[0].pkt.Payload)
	}
}

func TestLinkFailureRequeuesDataPacket(t *testing.T) {
	_, r, out := newRouter(t, 0)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 0, Dst: 4, DstSeq: 1, HopCount: 3},
	})
	pkt := dataTo(4)
	r.LinkFailure(1, pkt)

	// Route gone; the packet re-enters discovery (one new RREQ, packet
	// buffered, not dropped).
	if len(out.dropped) != 0 {
		t.Fatal("failed packet dropped instead of re-queued")
	}
	foundRREQ := false
	for _, m := range out.routing {
		if _, ok := m.pkt.Payload.(*RREQ); ok {
			foundRREQ = true
		}
	}
	if !foundRREQ {
		t.Fatal("no rediscovery after link failure with pending data")
	}
}

func TestRERRPropagation(t *testing.T) {
	_, r, out := newRouter(t, 2)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RREP{Src: 2, Dst: 4, DstSeq: 1, HopCount: 1},
	})
	out.routing = nil

	// RERR from our next hop for destination 4: invalidate + propagate.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RERR{Unreachable: []Unreachable{{Dst: 4, Seq: 2}}},
	})
	if _, ok := r.NextHop(4); ok {
		t.Fatal("route not invalidated by RERR")
	}
	if len(out.routing) != 1 {
		t.Fatalf("propagated RERRs = %d, want 1", len(out.routing))
	}

	// RERR from an unrelated neighbour must not touch routes or
	// propagate.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 3,
		Payload: &RREP{Src: 2, Dst: 4, DstSeq: 3, HopCount: 1},
	})
	out.routing = nil
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 9,
		Payload: &RERR{Unreachable: []Unreachable{{Dst: 4, Seq: 9}}},
	})
	if _, ok := r.NextHop(4); !ok {
		t.Fatal("RERR from non-nexthop invalidated route")
	}
	if len(out.routing) != 0 {
		t.Fatal("RERR propagated without invalidating anything")
	}
}

func TestFresherSequenceReplacesRoute(t *testing.T) {
	_, r, _ := newRouter(t, 2)
	install := func(nh packet.NodeID, seq uint32, hops int) {
		r.HandleRouting(&packet.Packet{
			Kind: packet.KindRouting, MACSrc: nh,
			Payload: &RREP{Src: 2, Dst: 4, DstSeq: seq, HopCount: hops - 1},
		})
	}
	install(1, 5, 3)
	install(3, 6, 5) // fresher seq wins despite more hops
	if nh, _ := r.NextHop(4); nh != 3 {
		t.Fatalf("next hop = %v, want fresher route via n3", nh)
	}
	install(7, 6, 2) // same seq, fewer hops wins
	if nh, _ := r.NextHop(4); nh != 7 {
		t.Fatalf("next hop = %v, want shorter route via n7", nh)
	}
	install(9, 5, 1) // stale seq loses
	if nh, _ := r.NextHop(4); nh != 7 {
		t.Fatalf("next hop = %v, stale update must not win", nh)
	}
}

// TestInvalidatedRouteKeepsItsSequenceNumber pins the RFC 3561 6.2
// update rule on an invalidated route. A link failure bumps the route
// to 4 from sequence number s to s+1; a late RREP or RREQ reverse route
// still carrying s must not reinstall the broken path, while an update
// at s+1 (the route is inactive) or s+2 must replace it.
func TestInvalidatedRouteKeepsItsSequenceNumber(t *testing.T) {
	const s = 5
	rrep := func(seq uint32) *packet.Packet {
		return &packet.Packet{
			Kind: packet.KindRouting, MACSrc: 7,
			Payload: &RREP{Src: 2, Dst: 4, DstSeq: seq, HopCount: 1},
		}
	}
	rreq := func(seq uint32) *packet.Packet {
		return &packet.Packet{
			Kind: packet.KindRouting, MACSrc: 7,
			Payload: &RREQ{ID: 1, Src: 4, SrcSeq: seq, Dst: 9, HopCount: 1},
		}
	}
	for _, tt := range []struct {
		name    string
		update  *packet.Packet
		replace bool
	}{
		{"rrep at s", rrep(s), false},
		{"rreq reverse route at s", rreq(s), false},
		{"rrep at s+1", rrep(s + 1), true},
		{"rreq reverse route at s+1", rreq(s + 1), true},
		{"rrep at s+2", rrep(s + 2), true},
		{"rreq reverse route at s+2", rreq(s + 2), true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, r, _ := newRouter(t, 2)
			r.HandleRouting(&packet.Packet{
				Kind: packet.KindRouting, MACSrc: 3,
				Payload: &RREP{Src: 2, Dst: 4, DstSeq: s, HopCount: 1},
			})
			r.LinkFailure(3, nil)
			if rt := r.routes[4]; rt.valid || rt.seq != s+1 {
				t.Fatalf("after link failure: valid=%t seq=%d, want invalid at %d", rt.valid, rt.seq, s+1)
			}

			r.HandleRouting(tt.update)
			nh, ok := r.NextHop(4)
			if !tt.replace {
				if ok {
					t.Fatalf("older update reinstalled the route via %v", nh)
				}
				if rt := r.routes[4]; rt.nextHop != 3 || rt.seq != s+1 {
					t.Fatalf("older update rewrote the route: next hop %v seq %d", rt.nextHop, rt.seq)
				}
				return
			}
			if !ok || nh != 7 {
				t.Fatalf("next hop = %v (ok %t), want the update's n7", nh, ok)
			}
		})
	}
}

func TestRouteExpiry(t *testing.T) {
	s := sim.New(1)
	out := &stubOut{}
	var ids packet.IDGen
	cfg := DefaultConfig()
	cfg.ActiveRouteTimeout = sim.Second
	r, err := New(s, 0, out, &ids, ondemand.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 0, Dst: 4, DstSeq: 1, HopCount: 0},
	})
	if _, ok := r.NextHop(4); !ok {
		t.Fatal("route missing immediately after install")
	}
	s.Run(2 * sim.Second)
	if _, ok := r.NextHop(4); ok {
		t.Fatal("route did not expire")
	}
	if r.HopCount(4) != -1 {
		t.Fatal("HopCount of expired route should be -1")
	}
}

func TestMessageCloning(t *testing.T) {
	req := &RREQ{ID: 1, Src: 0, Dst: 4, HopCount: 2}
	c := req.ClonePayload().(*RREQ)
	c.HopCount = 9
	if req.HopCount != 2 {
		t.Fatal("RREQ clone aliases original")
	}
	rep := &RREP{Src: 0, Dst: 4, HopCount: 1}
	c2 := rep.ClonePayload().(*RREP)
	c2.HopCount = 9
	if rep.HopCount != 1 {
		t.Fatal("RREP clone aliases original")
	}
	rerr := &RERR{Unreachable: []Unreachable{{Dst: 4, Seq: 1}}}
	c3 := rerr.ClonePayload().(*RERR)
	c3.Unreachable[0].Seq = 99
	if rerr.Unreachable[0].Seq != 1 {
		t.Fatal("RERR clone aliases original")
	}
	if rerr.size() != rerrSize {
		t.Fatalf("single-dst RERR size = %d", rerr.size())
	}
	two := &RERR{Unreachable: []Unreachable{{Dst: 4}, {Dst: 5}}}
	if two.size() != rerrSize+8 {
		t.Fatalf("two-dst RERR size = %d", two.size())
	}
}
