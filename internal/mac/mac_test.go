package mac

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// stubUpper is a scripted network layer: a FIFO of frames to send plus
// recorders for every upcall.
type stubUpper struct {
	queue     []*packet.Packet
	received  []*packet.Packet
	succeeded []*packet.Packet
	failed    []*packet.Packet
}

func (u *stubUpper) OnMACReceive(p *packet.Packet) { u.received = append(u.received, p) }
func (u *stubUpper) OnTxSuccess(p *packet.Packet)  { u.succeeded = append(u.succeeded, p) }
func (u *stubUpper) OnTxFail(p *packet.Packet)     { u.failed = append(u.failed, p) }
func (u *stubUpper) NextFrame() *packet.Packet {
	if len(u.queue) == 0 {
		return nil
	}
	p := u.queue[0]
	u.queue = u.queue[1:]
	return p
}

type testNode struct {
	mac   *DCF
	upper *stubUpper
	radio *phy.Radio
}

// buildNodes wires n MACs to a fresh channel at the given positions.
func buildNodes(t *testing.T, seed int64, cfg Config, positions []topo.Position) (*sim.Simulator, []*testNode) {
	return buildNodesPhy(t, seed, cfg, phy.DefaultConfig(), positions)
}

// buildNodesPhy is buildNodes with a custom channel configuration.
func buildNodesPhy(t *testing.T, seed int64, cfg Config, phyCfg phy.Config, positions []topo.Position) (*sim.Simulator, []*testNode) {
	t.Helper()
	s := sim.New(seed)
	ch, err := phy.NewChannel(s, phyCfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testNode, len(positions))
	for i, pos := range positions {
		up := &stubUpper{}
		n := &testNode{upper: up}
		radioHolder := &deferredMAC{}
		n.radio = ch.AddRadio(pos, radioHolder)
		m, err := New(s, n.radio, packet.NodeID(i), up, cfg)
		if err != nil {
			t.Fatal(err)
		}
		radioHolder.m = m
		n.mac = m
		nodes[i] = n
	}
	return s, nodes
}

// deferredMAC lets us create the radio before the DCF that drives it.
type deferredMAC struct{ m *DCF }

func (d *deferredMAC) OnCarrierBusy()                      { d.m.OnCarrierBusy() }
func (d *deferredMAC) OnCarrierIdle()                      { d.m.OnCarrierIdle() }
func (d *deferredMAC) OnReceive(p *packet.Packet, ok bool) { d.m.OnReceive(p, ok) }
func (d *deferredMAC) OnTxDone(p *packet.Packet)           { d.m.OnTxDone(p) }

var uidGen packet.IDGen

func frameTo(dst packet.NodeID, size int) *packet.Packet {
	return &packet.Packet{
		UID:    uidGen.Next(),
		Kind:   packet.KindData,
		Size:   size,
		MACDst: dst,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SlotTime = 0 },
		func(c *Config) { c.SIFS = 0 },
		func(c *Config) { c.DIFS = c.SIFS },
		func(c *Config) { c.CWMin = 0 },
		func(c *Config) { c.CWMax = c.CWMin - 1 },
		func(c *Config) { c.ShortRetryLimit = 0 },
		func(c *Config) { c.LongRetryLimit = 0 },
		func(c *Config) { c.RTSThreshold = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastDelivery(t *testing.T) {
	s, nodes := buildNodes(t, 1, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	pkt := frameTo(1, 1000)
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 1 || nodes[1].upper.received[0] != pkt {
		t.Fatalf("receiver got %d frames", len(nodes[1].upper.received))
	}
	if len(nodes[0].upper.succeeded) != 1 {
		t.Fatalf("sender success upcalls = %d, want 1", len(nodes[0].upper.succeeded))
	}
	st := nodes[0].mac.Stats()
	if st.RTSSent != 1 || st.DataSent != 1 {
		t.Fatalf("sender stats = %+v, want 1 RTS and 1 data frame", st)
	}
	rst := nodes[1].mac.Stats()
	if rst.CTSSent != 1 || rst.ACKSent != 1 {
		t.Fatalf("receiver stats = %+v, want 1 CTS and 1 ACK", rst)
	}
	if !nodes[0].mac.Idle() {
		t.Fatal("sender MAC should be idle after delivery")
	}
}

func TestUnicastWithoutRTS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSThreshold = 1 << 20 // never use RTS
	s, nodes := buildNodes(t, 1, cfg, []topo.Position{{X: 0}, {X: 200}})
	pkt := frameTo(1, 1000)
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 1 {
		t.Fatal("frame not delivered without RTS")
	}
	st := nodes[0].mac.Stats()
	if st.RTSSent != 0 {
		t.Fatalf("RTS sent despite high threshold: %+v", st)
	}
	if rst := nodes[1].mac.Stats(); rst.ACKSent != 1 || rst.CTSSent != 0 {
		t.Fatalf("receiver stats = %+v", rst)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	s, nodes := buildNodes(t, 1, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 200}, {X: -200}, {X: 800}})
	pkt := frameTo(packet.Broadcast, 64)
	pkt.Kind = packet.KindRouting
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 1 || len(nodes[2].upper.received) != 1 {
		t.Fatal("broadcast not delivered to in-range nodes")
	}
	if len(nodes[3].upper.received) != 0 {
		t.Fatal("broadcast delivered beyond range")
	}
	if len(nodes[0].upper.succeeded) != 1 {
		t.Fatal("broadcast should report success after transmission")
	}
	// No control frames for broadcast.
	if st := nodes[1].mac.Stats(); st.CTSSent != 0 || st.ACKSent != 0 {
		t.Fatalf("control frames sent for broadcast: %+v", st)
	}
}

func TestRetryExhaustionReportsLinkFailure(t *testing.T) {
	// Destination far out of range: every RTS goes unanswered.
	s, nodes := buildNodes(t, 1, DefaultConfig(), []topo.Position{{X: 0}, {X: 5000}})
	pkt := frameTo(1, 1000)
	nodes[0].upper.queue = append(nodes[0].upper.queue, pkt)
	nodes[0].mac.Kick()
	s.Run(5 * sim.Second)

	if len(nodes[0].upper.failed) != 1 || nodes[0].upper.failed[0] != pkt {
		t.Fatalf("failed upcalls = %d, want 1", len(nodes[0].upper.failed))
	}
	st := nodes[0].mac.Stats()
	if st.RTSSent != uint64(DefaultConfig().ShortRetryLimit) {
		t.Fatalf("RTS attempts = %d, want %d", st.RTSSent, DefaultConfig().ShortRetryLimit)
	}
	if st.Drops != 1 {
		t.Fatalf("drops = %d, want 1", st.Drops)
	}
	if !nodes[0].mac.Idle() {
		t.Fatal("MAC should be idle after giving up")
	}
}

func TestQueueDrainsMultipleFrames(t *testing.T) {
	s, nodes := buildNodes(t, 2, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	const n = 20
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	s.Run(2 * sim.Second)

	if got := len(nodes[1].upper.received); got != n {
		t.Fatalf("delivered %d frames, want %d", got, n)
	}
	if got := len(nodes[0].upper.succeeded); got != n {
		t.Fatalf("success upcalls = %d, want %d", got, n)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	s, nodes := buildNodes(t, 3, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	const n = 10
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1000))
		nodes[1].upper.queue = append(nodes[1].upper.queue, frameTo(0, 1000))
	}
	nodes[0].mac.Kick()
	nodes[1].mac.Kick()
	s.Run(5 * sim.Second)

	if len(nodes[1].upper.received) != n || len(nodes[0].upper.received) != n {
		t.Fatalf("bidirectional delivery: a->b %d, b->a %d, want %d each",
			len(nodes[1].upper.received), len(nodes[0].upper.received), n)
	}
}

func TestHiddenTerminalsRecoverViaRTS(t *testing.T) {
	// Classic hidden-terminal: with carrier sense limited to the TX
	// range, 0 and 2 cannot hear each other and both send to 1 in the
	// middle. The CTS sets the other sender's NAV, so data frames are
	// protected; only short RTS frames collide and retries recover.
	phyCfg := phy.DefaultConfig()
	phyCfg.CSRange = 250
	s, nodes := buildNodesPhy(t, 4, DefaultConfig(), phyCfg,
		[]topo.Position{{X: 0}, {X: 250}, {X: 500}})
	const n = 15
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	nodes[2].mac.Kick()
	s.Run(10 * sim.Second)

	if got := len(nodes[1].upper.received); got != 2*n {
		t.Fatalf("delivered %d frames under hidden terminals, want %d", got, 2*n)
	}
}

func TestChainInterferenceCausesContentionLoss(t *testing.T) {
	// The paper's contention-loss mechanism: with the NS-2 550 m CS
	// range, a transmitter two hops away (750 m) is inaudible to the
	// sender but interferes at its receiver (500 m away). Under
	// saturation some frames exhaust their retries — these MAC drops
	// are what AODV interprets as link failures. The MAC must stay
	// live (conservation: every frame either succeeds or fails) and
	// still deliver the majority.
	s, nodes := buildNodes(t, 12, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 250}, {X: 750}, {X: 1000}})
	const n = 25
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(3, 1460))
	}
	nodes[0].mac.Kick()
	nodes[2].mac.Kick()
	s.Run(30 * sim.Second)

	for _, i := range []int{0, 2} {
		done := len(nodes[i].upper.succeeded) + len(nodes[i].upper.failed)
		if done != n {
			t.Fatalf("sender %d: %d success + %d fail != %d sent",
				i, len(nodes[i].upper.succeeded), len(nodes[i].upper.failed), n)
		}
	}
	delivered := len(nodes[1].upper.received) + len(nodes[3].upper.received)
	if delivered < 2*n*6/10 {
		t.Fatalf("only %d/%d frames survived chain interference", delivered, 2*n)
	}
}

func TestContendersShareChannelWithoutLoss(t *testing.T) {
	// Two senders in range of each other and of the receiver: carrier
	// sensing plus backoff must deliver all frames.
	s, nodes := buildNodes(t, 5, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 125}, {X: 250}})
	const n = 25
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	nodes[2].mac.Kick()
	s.Run(10 * sim.Second)

	if got := len(nodes[1].upper.received); got != 2*n {
		t.Fatalf("delivered %d/%d frames between two contenders", got, 2*n)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Drop MAC ACKs at random via high control-frame-unfriendly BER is
	// hard to target; instead simulate an ACK loss by a one-off
	// interference burst is fragile. Simplest deterministic approach:
	// deliver the same frame UID twice through the PHY by retrying at
	// the sender with a forced timeout. We emulate the effect directly:
	// feed OnReceive the same data frame twice.
	s, nodes := buildNodes(t, 6, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	_ = s
	pkt := frameTo(1, 500)
	pkt.MACSrc = 0
	nodes[1].mac.OnReceive(pkt, true)
	nodes[1].mac.OnReceive(pkt, true)

	if len(nodes[1].upper.received) != 1 {
		t.Fatalf("duplicate frame delivered %d times", len(nodes[1].upper.received))
	}
	if st := nodes[1].mac.Stats(); st.Duplicates != 1 {
		t.Fatalf("duplicate counter = %d, want 1", st.Duplicates)
	}
}

func TestNAVBlocksThirdParty(t *testing.T) {
	// Node 2 overhears node 0's RTS to node 1 and must defer its own
	// transmission until the exchange completes.
	s, nodes := buildNodes(t, 7, DefaultConfig(),
		[]topo.Position{{X: 0}, {X: 200}, {X: 120}})
	big := frameTo(1, 1460)
	nodes[0].upper.queue = append(nodes[0].upper.queue, big)
	nodes[0].mac.Kick()

	// Node 2 wants the channel shortly after node 0 starts contending.
	s.Schedule(100*sim.Microsecond, func() {
		nodes[2].upper.queue = append(nodes[2].upper.queue, frameTo(1, 100))
		nodes[2].mac.Kick()
	})
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(nodes[1].upper.received))
	}
	// Node 2 overheard node 0's RTS (or the receiver's CTS) at some
	// point and must have recorded a NAV reservation.
	if nodes[2].mac.navUntil == 0 {
		t.Fatal("node 2 never set its NAV from the overheard exchange")
	}
}

func TestEIFSAfterCorruptedFrame(t *testing.T) {
	s, nodes := buildNodes(t, 8, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	m := nodes[0].mac
	m.OnReceive(&packet.Packet{UID: 999, Kind: packet.KindData, MACDst: 5}, false)
	if !m.useEIFS {
		t.Fatal("corrupted reception did not arm EIFS")
	}
	// A subsequent good frame clears the EIFS condition.
	m.OnReceive(&packet.Packet{UID: 1000, Kind: packet.KindData, MACDst: 5, MACDur: 0}, true)
	if m.useEIFS {
		t.Fatal("good reception did not clear EIFS")
	}
	_ = s
}

func TestKickWhileBusyIsIgnored(t *testing.T) {
	s, nodes := buildNodes(t, 9, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1000), frameTo(1, 1000))
	nodes[0].mac.Kick()
	nodes[0].mac.Kick() // second kick must not double-start
	s.Run(sim.Second)

	if len(nodes[1].upper.received) != 2 {
		t.Fatalf("delivered %d, want 2", len(nodes[1].upper.received))
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// Five stations all in range of a central receiver, saturated.
	pos := []topo.Position{
		{X: 0},
		{X: 100}, {X: -100}, {X: 0, Y: 100}, {X: 0, Y: -100}, {X: 70, Y: 70},
	}
	s, nodes := buildNodes(t, 10, DefaultConfig(), pos)
	const per = 8
	for i := 1; i <= 5; i++ {
		for j := 0; j < per; j++ {
			nodes[i].upper.queue = append(nodes[i].upper.queue, frameTo(0, 1000))
		}
		nodes[i].mac.Kick()
	}
	s.Run(20 * sim.Second)

	if got := len(nodes[0].upper.received); got != 5*per {
		t.Fatalf("delivered %d/%d frames with 5 contenders", got, 5*per)
	}
}

func TestThroughputUpperBoundSingleHop(t *testing.T) {
	// Sanity-check DCF efficiency: 1460-byte frames over one hop at
	// 2 Mbps with RTS/CTS should land in the 1.0-1.8 Mbps range.
	s, nodes := buildNodes(t, 11, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	const n = 200
	for i := 0; i < n; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460+40))
	}
	nodes[0].mac.Kick()
	end := s.RunAll()

	if got := len(nodes[1].upper.received); got != n {
		t.Fatalf("delivered %d/%d", got, n)
	}
	bits := float64(n * 1500 * 8)
	mbps := bits / end.Seconds() / 1e6
	if mbps < 1.0 || mbps > 1.9 {
		t.Fatalf("single-hop goodput = %.2f Mbps, outside DCF plausibility [1.0, 1.9]", mbps)
	}
}

func TestUtilizationTracksBusyFraction(t *testing.T) {
	s, nodes := buildNodes(t, 20, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	// Saturate: many back-to-back frames. The estimator folds lazily, so
	// poll it at the cadence the network layer does (per forwarded
	// packet, here every window).
	for i := 0; i < 400; i++ {
		nodes[0].upper.queue = append(nodes[0].upper.queue, frameTo(1, 1460))
	}
	nodes[0].mac.Kick()
	var busy float64
	var tick func()
	tick = func() {
		busy = nodes[0].mac.Utilization()
		nodes[1].mac.Utilization()
		s.Schedule(100*sim.Millisecond, tick)
	}
	s.Schedule(100*sim.Millisecond, tick)
	s.Run(2 * sim.Second)

	if busy < 0.5 {
		t.Fatalf("sender utilization = %.2f under saturation", busy)
	}
	if u := nodes[1].mac.Utilization(); u < 0.5 {
		t.Fatalf("receiver utilization = %.2f under saturation", u)
	}

	// After a long idle stretch (queue drained) the estimate decays.
	nodes[0].upper.queue = nil
	s.Run(12 * sim.Second)
	if u := nodes[0].mac.Utilization(); u > 0.3 {
		t.Fatalf("utilization did not decay after idle: %.2f", u)
	}
}

func TestUtilizationIdleIsZero(t *testing.T) {
	s, nodes := buildNodes(t, 21, DefaultConfig(), []topo.Position{{X: 0}, {X: 200}})
	s.Run(2 * sim.Second)
	if u := nodes[0].mac.Utilization(); u != 0 {
		t.Fatalf("idle utilization = %.2f, want 0", u)
	}
}

// nopMAC is a radio's upper layer that ignores every upcall, so a radio
// wired to it is a bare transmitter.
type nopMAC struct{}

func (nopMAC) OnCarrierBusy()                 {}
func (nopMAC) OnCarrierIdle()                 {}
func (nopMAC) OnReceive(*packet.Packet, bool) {}
func (nopMAC) OnTxDone(*packet.Packet)        {}

// txClock forwards every upcall to a DCF and records when its radio
// last finished a transmission.
type txClock struct {
	deferredMAC
	sim    *sim.Simulator
	doneAt sim.Time
	frames int
}

func (c *txClock) OnTxDone(p *packet.Packet) {
	c.doneAt = c.sim.Now()
	c.frames++
	c.m.OnTxDone(p)
}

func TestBackoffFreezeKeepsRemainingSlots(t *testing.T) {
	// One station draws n backoff slots and starts contending at t=0.
	// A co-located transmitter (zero propagation delay) raises carrier
	// k whole slots plus delta into the countdown. The k elapsed slots
	// count, the partial one does not, so after the interference ends
	// the station waits DIFS and exactly n-k more slots.
	cfg := DefaultConfig()
	seed, n := int64(0), 0
	for n < 6 {
		seed++
		n = sim.New(seed).Rand().Intn(cfg.CWMin + 1)
	}
	k := n / 2
	const burst = 300 * sim.Microsecond
	for _, delta := range []sim.Time{0, 1, cfg.SlotTime - 1} {
		t.Run(delta.String(), func(t *testing.T) {
			s := sim.New(seed)
			ch, err := phy.NewChannel(s, phy.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			clock := &txClock{sim: s}
			radio := ch.AddRadio(topo.Position{}, clock)
			up := &stubUpper{}
			m, err := New(s, radio, 0, up, cfg)
			if err != nil {
				t.Fatal(err)
			}
			clock.m = m
			intf := ch.AddRadio(topo.Position{}, nopMAC{})

			frame := frameTo(packet.Broadcast, 64)
			up.queue = append(up.queue, frame)
			m.Kick()
			busyAt := cfg.DIFS + sim.Time(k)*cfg.SlotTime + delta
			s.At(busyAt, func() {
				intf.Transmit(&packet.Packet{UID: uidGen.Next(), Kind: packet.KindData, Size: 100, MACDst: 99}, burst)
			})
			s.Run(sim.Second)

			if clock.frames != 1 || len(up.succeeded) != 1 {
				t.Fatalf("station sent %d frames, %d succeeded; want 1", clock.frames, len(up.succeeded))
			}
			idle := busyAt + burst
			want := idle + cfg.DIFS + sim.Time(n-k)*cfg.SlotTime
			if got := clock.doneAt - m.dataAir(frame); got != want {
				t.Fatalf("n=%d k=%d: frame went out at %v, want %v (idle %v + DIFS + %d slots)",
					n, k, got, want, idle, n-k)
			}
		})
	}
}
