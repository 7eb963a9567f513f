package node

import (
	"testing"

	"muzha/internal/core"
	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// recorder is a transport agent that logs deliveries.
type recorder struct {
	flow int32
	got  []*packet.Packet
}

func (r *recorder) FlowID() int32         { return r.flow }
func (r *recorder) Recv(p *packet.Packet) { r.got = append(r.got, p) }

// buildChain assembles an h-hop chain of full nodes.
func buildChain(t *testing.T, seed int64, hops int, cfg Config) (*sim.Simulator, []*Node) {
	t.Helper()
	s := sim.New(seed)
	ch, err := phy.NewChannel(s, phy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Chain(hops)
	if err != nil {
		t.Fatal(err)
	}
	var ids packet.IDGen
	nodes := make([]*Node, tp.N())
	for i, pos := range tp.Positions {
		n, err := New(s, ch, pos, packet.NodeID(i), &ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return s, nodes
}

func seg(flow int32, dst packet.NodeID, seq int64) *packet.Packet {
	return &packet.Packet{
		Dst:  dst,
		Size: 1460 + packet.IPHeaderSize + packet.TCPHeaderSize,
		TCP:  &packet.TCPHeader{FlowID: flow, Seq: seq},
		AVBW: packet.AVBWMax,
	}
}

func TestEndToEndDeliveryOverChain(t *testing.T) {
	s, nodes := buildChain(t, 1, 4, DefaultConfig())
	sink := &recorder{flow: 1}
	if err := nodes[4].Attach(sink); err != nil {
		t.Fatal(err)
	}

	const n = 10
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(sim.Time(i)*50*sim.Millisecond, func() {
			nodes[0].Send(seg(1, 4, int64(i)*1460))
		})
	}
	s.Run(10 * sim.Second)

	if len(sink.got) != n {
		t.Fatalf("delivered %d/%d segments over 4-hop chain", len(sink.got), n)
	}
	// In-order FIFO path: sequence numbers must arrive ascending.
	for i := 1; i < len(sink.got); i++ {
		if sink.got[i].TCP.Seq < sink.got[i-1].TCP.Seq {
			t.Fatal("segments reordered on a static single path")
		}
	}
	// Intermediate nodes forwarded.
	for _, mid := range nodes[1:4] {
		if mid.Stats().Forwarded == 0 {
			t.Fatalf("node %v forwarded nothing", mid.ID())
		}
	}
	// Discovery happened exactly once at the source.
	if st := nodes[0].RouterStats(); st.Discoveries != 1 || st.DiscoveryOK != 1 {
		t.Fatalf("source discoveries = %+v", st)
	}
}

func TestBidirectionalFlowSharesRoutes(t *testing.T) {
	// ACK-like traffic back from node 4 must reuse the reverse routes
	// established by the forward discovery: no second discovery needed.
	s, nodes := buildChain(t, 2, 4, DefaultConfig())
	fwd := &recorder{flow: 1}
	back := &recorder{flow: 1}
	if err := nodes[4].Attach(fwd); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(back); err != nil {
		t.Fatal(err)
	}

	nodes[0].Send(seg(1, 4, 0))
	s.Run(2 * sim.Second)
	if len(fwd.got) != 1 {
		t.Fatalf("forward segment not delivered")
	}

	ack := &packet.Packet{
		Dst:  0,
		Size: packet.IPHeaderSize + packet.TCPHeaderSize,
		TCP:  &packet.TCPHeader{FlowID: 1, Ack: 1460, IsAck: true},
	}
	nodes[4].Send(ack)
	s.Run(4 * sim.Second)

	if len(back.got) != 1 {
		t.Fatal("reverse segment not delivered")
	}
	if st := nodes[4].RouterStats(); st.Discoveries != 0 {
		t.Fatalf("reverse path triggered %d discoveries, want 0 (reverse routes)", st.Discoveries)
	}
}

func TestAVBWStampedAlongPath(t *testing.T) {
	s, nodes := buildChain(t, 3, 4, DefaultConfig())
	sink := &recorder{flow: 1}
	if err := nodes[4].Attach(sink); err != nil {
		t.Fatal(err)
	}
	nodes[0].Send(seg(1, 4, 0))
	s.Run(2 * sim.Second)

	if len(sink.got) != 1 {
		t.Fatal("segment not delivered")
	}
	got := sink.got[0].AVBW
	// Idle queues everywhere: every node recommends aggressive
	// acceleration, so the minimum along the path is still 5.
	if got != core.DRAIAggressiveAccel {
		t.Fatalf("AVBW at sink = %d, want %d on an idle path", got, core.DRAIAggressiveAccel)
	}
}

func TestDRAIDisabledLeavesPacketUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAI = nil
	s, nodes := buildChain(t, 4, 2, cfg)
	sink := &recorder{flow: 1}
	if err := nodes[2].Attach(sink); err != nil {
		t.Fatal(err)
	}
	nodes[0].Send(seg(1, 2, 0))
	s.Run(2 * sim.Second)

	if len(sink.got) != 1 {
		t.Fatal("segment not delivered")
	}
	if sink.got[0].AVBW != packet.AVBWMax {
		t.Fatalf("AVBW modified with DRAI disabled: %d", sink.got[0].AVBW)
	}
	if sink.got[0].CongMarked {
		t.Fatal("packet marked with DRAI disabled")
	}
}

func TestNoAgentDropCounted(t *testing.T) {
	s, nodes := buildChain(t, 5, 2, DefaultConfig())
	nodes[0].Send(seg(42, 2, 0)) // flow 42 has no agent at the sink
	s.Run(2 * sim.Second)
	if nodes[2].Stats().NoAgentDrop != 1 {
		t.Fatalf("NoAgentDrop = %d, want 1", nodes[2].Stats().NoAgentDrop)
	}
}

func TestDuplicateAgentRejected(t *testing.T) {
	_, nodes := buildChain(t, 6, 1, DefaultConfig())
	if err := nodes[0].Attach(&recorder{flow: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Attach(&recorder{flow: 1}); err == nil {
		t.Fatal("duplicate agent accepted")
	}
}

func TestLocalDelivery(t *testing.T) {
	_, nodes := buildChain(t, 7, 1, DefaultConfig())
	self := &recorder{flow: 1}
	if err := nodes[0].Attach(self); err != nil {
		t.Fatal(err)
	}
	nodes[0].Send(seg(1, 0, 0))
	if len(self.got) != 1 {
		t.Fatal("self-addressed segment not delivered locally")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 5
	s, nodes := buildChain(t, 8, 2, cfg)
	sink := &recorder{flow: 1}
	if err := nodes[2].Attach(sink); err != nil {
		t.Fatal(err)
	}
	// Blast 60 segments at once: the source IFQ (5) must overflow.
	for i := 0; i < 60; i++ {
		nodes[0].Send(seg(1, 2, int64(i)*1460))
	}
	s.Run(10 * sim.Second)

	if nodes[0].Stats().QueueDrops == 0 {
		t.Fatal("no queue drops under burst overload")
	}
	if len(sink.got) == 0 {
		t.Fatal("nothing delivered despite queue space")
	}
	if len(sink.got) >= 60 {
		t.Fatal("all segments delivered despite tiny queue")
	}
}

func TestCongestionMarkingUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueLimit = 10
	s, nodes := buildChain(t, 9, 2, cfg)
	sink := &recorder{flow: 1}
	if err := nodes[2].Attach(sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		nodes[0].Send(seg(1, 2, int64(i)*1460))
	}
	s.Run(10 * sim.Second)

	marked := 0
	for _, p := range sink.got {
		if p.CongMarked {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no packets congestion-marked under overload")
	}
	if nodes[0].Stats().Marked == 0 {
		t.Fatal("source marking counter is zero")
	}
}

func TestTTLExpiryDropsPacket(t *testing.T) {
	s, nodes := buildChain(t, 10, 4, DefaultConfig())
	sink := &recorder{flow: 1}
	if err := nodes[4].Attach(sink); err != nil {
		t.Fatal(err)
	}
	p := seg(1, 4, 0)
	p.TTL = 2 // expires after two forwards on a 4-hop path
	nodes[0].Send(p)
	s.Run(2 * sim.Second)

	if len(sink.got) != 0 {
		t.Fatal("TTL-expired packet delivered")
	}
	total := uint64(0)
	for _, n := range nodes {
		total += n.Stats().TTLDrops
	}
	if total != 1 {
		t.Fatalf("TTL drops = %d, want 1", total)
	}
}

func TestREDQueueNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseRED = true
	cfg.RED.MinTh = 3
	cfg.RED.MaxTh = 8
	cfg.RED.MaxP = 0.5
	cfg.RED.Weight = 0.3
	cfg.QueueLimit = 10
	s, nodes := buildChain(t, 11, 2, cfg)
	sink := &recorder{flow: 1}
	if err := nodes[2].Attach(sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		nodes[0].Send(seg(1, 2, int64(i)*1460))
	}
	s.Run(10 * sim.Second)

	if len(sink.got) == 0 {
		t.Fatal("RED node delivered nothing")
	}
	if nodes[0].Stats().QueueDrops == 0 {
		t.Fatal("RED queue never dropped under overload")
	}
}

func TestInvalidConfigs(t *testing.T) {
	s := sim.New(1)
	ch, _ := phy.NewChannel(s, phy.DefaultConfig())
	var ids packet.IDGen

	cfg := DefaultConfig()
	cfg.QueueLimit = 0
	if _, err := New(s, ch, topo.Position{}, 0, &ids, cfg); err == nil {
		t.Fatal("zero queue limit accepted")
	}

	cfg = DefaultConfig()
	bad := core.DRAIPolicy{Thresholds: []float64{0.5}, Levels: []int{5}}
	cfg.DRAI = &bad
	if _, err := New(s, ch, topo.Position{}, 0, &ids, cfg); err == nil {
		t.Fatal("invalid DRAI policy accepted")
	}

	cfg = DefaultConfig()
	cfg.MAC.CWMin = 0
	if _, err := New(s, ch, topo.Position{}, 0, &ids, cfg); err == nil {
		t.Fatal("invalid MAC config accepted")
	}

	cfg = DefaultConfig()
	cfg.AODV.ActiveRouteTimeout = 0
	if _, err := New(s, ch, topo.Position{}, 0, &ids, cfg); err == nil {
		t.Fatal("invalid AODV config accepted")
	}

	for _, proto := range []Routing{RoutingAODV, RoutingDSR} {
		cfg = DefaultConfig()
		cfg.Protocol = proto
		cfg.Discovery.MaxBuffered = 0
		if _, err := New(s, ch, topo.Position{}, 0, &ids, cfg); err == nil {
			t.Fatalf("invalid discovery config accepted (protocol %d)", proto)
		}
	}
}

func TestLongChainDelivery(t *testing.T) {
	s, nodes := buildChain(t, 12, 16, DefaultConfig())
	last := packet.NodeID(16)
	sink := &recorder{flow: 1}
	if err := nodes[16].Attach(sink); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(sim.Time(i)*200*sim.Millisecond, func() {
			nodes[0].Send(seg(1, last, int64(i)*1460))
		})
	}
	s.Run(30 * sim.Second)

	if len(sink.got) != n {
		t.Fatalf("delivered %d/%d over 16 hops", len(sink.got), n)
	}
}
