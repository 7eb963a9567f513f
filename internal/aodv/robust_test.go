package aodv

import (
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// miniNet wires a few routers into a static chain so protocol-level
// scenarios (crash, reboot, re-discovery) run without the full node/MAC
// stack. Frames hop with a fixed latency; crashed routers neither send
// nor receive.
type miniNet struct {
	t         *testing.T
	s         *sim.Simulator
	routers   map[packet.NodeID]*Router
	neighbors map[packet.NodeID][]packet.NodeID
	crashed   map[packet.NodeID]bool
	delivered []*packet.Packet
	dropped   map[string]int
}

const miniHop = 2 * sim.Millisecond

func newMiniChain(t *testing.T, n int) *miniNet {
	t.Helper()
	net := &miniNet{
		t:         t,
		s:         sim.New(1),
		routers:   make(map[packet.NodeID]*Router),
		neighbors: make(map[packet.NodeID][]packet.NodeID),
		crashed:   make(map[packet.NodeID]bool),
		dropped:   make(map[string]int),
	}
	var ids packet.IDGen
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		r, err := New(net.s, id, &miniPort{net: net, self: id}, &ids, ondemand.DefaultConfig(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		net.routers[id] = r
		if i > 0 {
			net.neighbors[id] = append(net.neighbors[id], id-1)
			net.neighbors[id-1] = append(net.neighbors[id-1], id)
		}
	}
	return net
}

// miniPort adapts one router's Output to the miniNet fabric.
type miniPort struct {
	net  *miniNet
	self packet.NodeID
}

func (p *miniPort) SendRouting(pkt *packet.Packet, nextHop packet.NodeID) {
	net := p.net
	if net.crashed[p.self] {
		return
	}
	for _, nb := range net.neighbors[p.self] {
		if nextHop != packet.Broadcast && nb != nextHop {
			continue
		}
		nb := nb
		cp := pkt.Clone()
		cp.MACSrc = p.self
		net.s.Schedule(miniHop, func() {
			if !net.crashed[nb] {
				net.routers[nb].HandleRouting(cp)
			}
		})
	}
}

func (p *miniPort) ForwardData(pkt *packet.Packet, nextHop packet.NodeID) {
	net := p.net
	if net.crashed[p.self] {
		return
	}
	if net.crashed[nextHop] {
		// The MAC would exhaust retries against a silent radio; report
		// the break back to the router, which re-routes or re-discovers.
		self := p.self
		net.s.Schedule(miniHop, func() {
			net.routers[self].LinkFailure(nextHop, pkt)
		})
		return
	}
	nb := nextHop
	cp := pkt
	net.s.Schedule(miniHop, func() {
		if net.crashed[nb] {
			return
		}
		if cp.Dst == nb {
			net.delivered = append(net.delivered, cp)
			return
		}
		cp.MACSrc = p.self
		net.routers[nb].SendData(cp)
	})
}

func (p *miniPort) DropData(pkt *packet.Packet, reason string) {
	p.net.dropped[reason]++
}

// TestCrashRebootRouteReestablishment is the regression for routing
// around a crashed relay: 0-1-2 chain, route 0->2 established, node 1
// crashes (wiping its state), node 0's retransmission hits a link
// failure and re-discovers; once 1 reboots, the retried flood passes
// through and the buffered packet is delivered.
func TestCrashRebootRouteReestablishment(t *testing.T) {
	net := newMiniChain(t, 3)
	r0, r1 := net.routers[0], net.routers[1]

	r0.SendData(&packet.Packet{UID: 1, Kind: packet.KindData, Src: 0, Dst: 2, Size: 1000})
	net.s.Run(sim.Second)
	if len(net.delivered) != 1 {
		t.Fatalf("warm-up delivery failed: %d packets", len(net.delivered))
	}
	if _, ok := r0.NextHop(2); !ok {
		t.Fatal("no route 0->2 after warm-up")
	}

	// Crash the relay: silent radio, volatile state gone.
	net.crashed[1] = true
	r1.Reset()

	r0.SendData(&packet.Packet{UID: 2, Kind: packet.KindData, Src: 0, Dst: 2, Size: 1000})
	net.s.Run(net.s.Now() + 300*sim.Millisecond)
	if len(net.delivered) != 1 {
		t.Fatal("packet delivered across a crashed relay")
	}
	if _, ok := r0.NextHop(2); ok {
		t.Fatal("route through crashed relay not invalidated")
	}

	// Reboot inside the retry window; the next RREQ retry re-establishes.
	net.crashed[1] = false
	net.s.Run(net.s.Now() + 5*sim.Second)

	if len(net.delivered) != 2 {
		t.Fatalf("delivered %d packets after reboot, want 2 (dropped: %v)",
			len(net.delivered), net.dropped)
	}
	if nh, ok := r0.NextHop(2); !ok || nh != 1 {
		t.Fatalf("route 0->2 after reboot = (%v, %v), want via n1", nh, ok)
	}
	if r0.Stats().LinkFailures == 0 {
		t.Fatal("link failure never reported")
	}
}

// TestResetDropsPendingDiscoveries checks Reset stops discovery timers
// and releases buffered packets.
func TestResetDropsPendingDiscoveries(t *testing.T) {
	s, r, out := newRouter(t, 0)
	r.SendData(dataTo(5))
	r.SendData(dataTo(5))
	r.SendData(dataTo(7))
	if len(out.routing) != 2 {
		t.Fatalf("started %d discoveries, want 2", len(out.routing))
	}

	r.Reset()
	if len(out.dropped) != 3 {
		t.Fatalf("reset dropped %d packets, want 3", len(out.dropped))
	}
	before := len(out.routing)
	s.Run(30 * sim.Second)
	if len(out.routing) != before {
		t.Fatal("discovery retries survived Reset")
	}
	if len(nextHops(r)) != 0 {
		t.Fatal("routes survived Reset")
	}
}

// TestCachedReplySkippedWhenRouteBacktracks: an intermediate node whose
// cached route to the requested destination points back through the
// requester must not answer from cache — doing so installs a two-node
// forwarding loop (seen after a node reboots and re-discovers while its
// neighbours still hold stale routes through it).
func TestCachedReplySkippedWhenRouteBacktracks(t *testing.T) {
	s, r, out := newRouter(t, 2)
	// Stale-but-valid route to 4 learned through neighbour 1.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 2, Dst: 4, DstSeq: 5, HopCount: 1},
	})
	out.routing = nil

	// Node 1 rebooted and now asks us for 4. Our only route goes back
	// through node 1 itself.
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREQ{ID: 3, Src: 1, SrcSeq: 1, Dst: 4, DstSeq: 2, DstSeqKnown: true, HopCount: 0},
	})
	s.Run(sim.Second)

	if len(out.routing) != 1 {
		t.Fatalf("messages = %d, want 1 rebroadcast", len(out.routing))
	}
	if _, isReq := out.routing[0].pkt.Payload.(*RREQ); !isReq {
		t.Fatalf("replied from a route that backtracks through the requester: %+v",
			out.routing[0].pkt.Payload)
	}
}

// TestNextHopsSnapshot checks the loop-scan accessor reflects validity
// and expiry without refreshing lifetimes.
// nextHops collects VisitNextHops into a dst -> next-hop map.
func nextHops(r *Router) map[packet.NodeID]packet.NodeID {
	out := make(map[packet.NodeID]packet.NodeID)
	r.VisitNextHops(func(dst, nh packet.NodeID) { out[dst] = nh })
	return out
}

func TestNextHopsSnapshot(t *testing.T) {
	s, r, _ := newRouter(t, 0)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREP{Src: 0, Dst: 4, DstSeq: 1, HopCount: 1},
	})
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 2,
		Payload: &RREP{Src: 0, Dst: 7, DstSeq: 1, HopCount: 2},
	})

	nh := nextHops(r)
	if len(nh) != 2 || nh[4] != 1 || nh[7] != 2 {
		t.Fatalf("next hops = %v", nh)
	}

	r.LinkFailure(2, nil)
	nh = nextHops(r)
	if len(nh) != 1 || nh[4] != 1 {
		t.Fatalf("next hops after link failure = %v", nh)
	}

	s.Run(DefaultConfig().ActiveRouteTimeout + sim.Second)
	if nh = nextHops(r); len(nh) != 0 {
		t.Fatalf("next hops after expiry = %v", nh)
	}
}
