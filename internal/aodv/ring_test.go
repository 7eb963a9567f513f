package aodv

import (
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// ringConfig is DefaultConfig with expanding-ring search enabled; the
// ring schedule is the package's TTLStart/TTLIncrement/TTLThreshold
// (2/2/7), which starts one hop wider than RFC 3561's TTL_START = 1.
func ringConfig() Config {
	cfg := DefaultConfig()
	cfg.ExpandingRing = true
	return cfg
}

// newMiniNet builds an n-router fabric with no links; tests wire the
// adjacency they need via linkNodes.
func newMiniNet(t *testing.T, n int, cfg Config) *miniNet {
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
		r, err := New(net.s, id, &miniPort{net: net, self: id}, &ids, ondemand.DefaultConfig(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.routers[id] = r
	}
	return net
}

func linkNodes(net *miniNet, a, b packet.NodeID) {
	net.neighbors[a] = append(net.neighbors[a], b)
	net.neighbors[b] = append(net.neighbors[b], a)
}

// newMiniGrid wires rows x cols routers into a 4-neighbour grid.
func newMiniGrid(t *testing.T, rows, cols int, cfg Config) *miniNet {
	net := newMiniNet(t, rows*cols, cfg)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := packet.NodeID(r*cols + c)
			if c+1 < cols {
				linkNodes(net, id, id+1)
			}
			if r+1 < rows {
				linkNodes(net, id, id+packet.NodeID(cols))
			}
		}
	}
	return net
}

func totalRREQSent(net *miniNet) uint64 {
	var total uint64
	for _, r := range net.routers {
		total += r.Stats().RREQSent
	}
	return total
}

// TTL progression on an unreachable destination: rings at TTLStart,
// +TTLIncrement per timeout, then network-wide (HopLimit 0) once past
// TTLThreshold, with Retries counting only network-wide attempts.
func TestExpandingRingTTLProgression(t *testing.T) {
	s := sim.New(1)
	out := &stubOut{}
	var ids packet.IDGen
	r, err := New(s, 0, out, &ids, ondemand.DefaultConfig(), ringConfig())
	if err != nil {
		t.Fatal(err)
	}
	pkt := dataTo(99)
	r.SendData(pkt)
	s.Run(60 * sim.Second)

	var limits []int
	for _, m := range out.routing {
		if req, ok := m.pkt.Payload.(*RREQ); ok {
			limits = append(limits, req.HopLimit)
		}
	}
	// TTLStart=2, +2, +2, then 8 > TTLThreshold=7 escalates to
	// network-wide; 1 initial network-wide + Retries=3 retries.
	want := []int{2, 4, 6, 0, 0, 0, 0}
	if len(limits) != len(want) {
		t.Fatalf("RREQ HopLimits = %v, want %v", limits, want)
	}
	for i := range want {
		if limits[i] != want[i] {
			t.Fatalf("RREQ HopLimits = %v, want %v", limits, want)
		}
	}
	if len(out.dropped) != 1 || out.dropped[0] != pkt {
		t.Fatalf("buffered packet not dropped after exhaustion: %d", len(out.dropped))
	}
	if r.Stats().DiscoveryErr != 1 {
		t.Fatalf("DiscoveryErr = %d", r.Stats().DiscoveryErr)
	}
}

// A ring-limited RREQ must stop at its edge: the node at the last
// allowed hop installs the reverse route but does not rebroadcast.
func TestRingEdgeDoesNotRebroadcast(t *testing.T) {
	s, r, out := newRouter(t, 2)
	r.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREQ{ID: 1, Src: 0, SrcSeq: 1, Dst: 9, HopCount: 1, HopLimit: 2},
	})
	s.Run(sim.Second)
	if len(out.routing) != 0 {
		t.Fatalf("ring edge rebroadcast %d messages", len(out.routing))
	}
	if nh, ok := r.NextHop(0); !ok || nh != 1 {
		t.Fatal("reverse route not installed at ring edge")
	}

	// One hop earlier the same request still propagates, HopLimit intact.
	s2, r2, out2 := newRouter(t, 3)
	r2.HandleRouting(&packet.Packet{
		Kind: packet.KindRouting, MACSrc: 1,
		Payload: &RREQ{ID: 1, Src: 0, SrcSeq: 1, Dst: 9, HopCount: 0, HopLimit: 2},
	})
	s2.Run(sim.Second)
	if len(out2.routing) != 1 {
		t.Fatalf("inside-ring rebroadcasts = %d, want 1", len(out2.routing))
	}
	fwd := out2.routing[0].pkt.Payload.(*RREQ)
	if fwd.HopLimit != 2 || fwd.HopCount != 1 {
		t.Fatalf("forwarded RREQ = %+v", fwd)
	}
	_ = s
}

// A near destination is found by the first ring; a far one requires
// escalation through wider rings to the network-wide flood, and the
// buffered packet is still delivered.
func TestExpandingRingChainEscalation(t *testing.T) {
	// 10-node chain: destination 9 is 9 hops out, beyond TTLThreshold.
	net := newMiniNet(t, 10, ringConfig())
	for i := 0; i < 9; i++ {
		linkNodes(net, packet.NodeID(i), packet.NodeID(i+1))
	}
	r0 := net.routers[0]
	r0.SendData(&packet.Packet{UID: 1, Kind: packet.KindData, Src: 0, Dst: 9, Size: 1000})
	net.s.Run(10 * sim.Second)

	if len(net.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1 (dropped: %v)", len(net.delivered), net.dropped)
	}
	if nh, ok := r0.NextHop(9); !ok || nh != 1 {
		t.Fatalf("route 0->9 = (%v, %v)", nh, ok)
	}
	// Origin sent the ring attempts 2/4/6 plus one network-wide flood.
	if got := r0.Stats().RREQSent; got != 4 {
		t.Fatalf("origin RREQSent = %d, want 4 (rings 2,4,6 + flood)", got)
	}
	if r0.Stats().DiscoveryOK != 1 {
		t.Fatal("discovery did not complete")
	}
}

// On a 10x10 grid with a nearby destination, expanding-ring discovery
// must cost strictly fewer RREQ transmissions than the network-wide
// flood the pre-refactor router always used.
func TestGridExpandingRingSendsFewerRREQs(t *testing.T) {
	run := func(cfg Config) (uint64, int) {
		net := newMiniGrid(t, 10, 10, cfg)
		// Destination 2 hops from the corner origin: inside the first ring.
		net.routers[0].SendData(&packet.Packet{UID: 1, Kind: packet.KindData, Src: 0, Dst: 2, Size: 1000})
		net.s.Run(5 * sim.Second)
		return totalRREQSent(net), len(net.delivered)
	}

	flood, deliveredFlood := run(DefaultConfig())
	ring, deliveredRing := run(ringConfig())
	if deliveredFlood != 1 || deliveredRing != 1 {
		t.Fatalf("delivery: flood=%d ring=%d, want 1 each", deliveredFlood, deliveredRing)
	}
	if ring >= flood {
		t.Fatalf("expanding ring RREQSent = %d, not below flood %d", ring, flood)
	}
	// The flood rebroadcasts at every node; the first ring only reaches
	// the origin's neighbourhood.
	if flood < 90 {
		t.Fatalf("flood RREQSent = %d, expected a ~100-node broadcast storm", flood)
	}
	if ring > 10 {
		t.Fatalf("ring RREQSent = %d, expected a contained neighbourhood search", ring)
	}
}

// The router's duplicate-RREQ cache is bounded: FIFO eviction keeps it
// at the configured capacity while still suppressing recent duplicates.
func TestSeenCacheBounded(t *testing.T) {
	disc := ondemand.DefaultConfig()
	disc.SeenCacheSize = 4
	var ids packet.IDGen
	r, err := New(sim.New(1), 5, &stubOut{}, &ids, disc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if r.od.Duplicate(1, uint32(i)) {
			t.Fatalf("fresh request %d reported as a duplicate", i)
		}
	}
	for i := 6; i < 10; i++ {
		if !r.od.Duplicate(1, uint32(i)) {
			t.Fatalf("recent request %d evicted", i)
		}
	}
	// A request seen again takes no second slot: one new id evicts only
	// the oldest entry (6), so 7..9 and the new id are all still held.
	if r.od.Duplicate(1, 0) {
		t.Fatal("old request 0 survived eviction")
	}
	for _, id := range []uint32{7, 8, 9, 0} {
		if !r.od.Duplicate(1, id) {
			t.Fatalf("request %d evicted; the cache holds fewer than 4", id)
		}
	}
	if r.od.Duplicate(1, 6) {
		t.Fatal("request 6 survived; the cache holds more than 4")
	}
}

// An evicted RREQ id is treated as new again — bounded memory trades
// perfect suppression for O(cap) state, which only matters under
// discovery volumes far beyond the cache size.
func TestSeenCacheEvictionAllowsReprocessing(t *testing.T) {
	s := sim.New(1)
	out := &stubOut{}
	var ids packet.IDGen
	disc := ondemand.DefaultConfig()
	disc.SeenCacheSize = 2
	r, err := New(s, 5, out, &ids, disc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := func(id uint32) *packet.Packet {
		return &packet.Packet{
			Kind: packet.KindRouting, MACSrc: 1,
			Payload: &RREQ{ID: id, Src: 0, SrcSeq: 1, Dst: 9, HopCount: 1},
		}
	}
	r.HandleRouting(req(1))
	r.HandleRouting(req(1)) // suppressed
	r.HandleRouting(req(2))
	r.HandleRouting(req(3)) // evicts id 1
	r.HandleRouting(req(1)) // processed again after eviction
	s.Run(sim.Second)
	if len(out.routing) != 4 {
		t.Fatalf("rebroadcasts = %d, want 4 (ids 1,2,3 + re-processed 1)", len(out.routing))
	}
}
