package ondemand

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

type drop struct {
	dst    packet.NodeID
	reason string
}

// stubOut records what the core hands to the node.
type stubOut struct {
	routing []*packet.Packet
	dropped []drop
}

func (o *stubOut) SendRouting(p *packet.Packet, _ packet.NodeID) { o.routing = append(o.routing, p) }
func (o *stubOut) ForwardData(*packet.Packet, packet.NodeID)     {}
func (o *stubOut) DropData(p *packet.Packet, reason string) {
	o.dropped = append(o.dropped, drop{p.Dst, reason})
}

type request struct {
	at  sim.Time
	dst packet.NodeID
	ttl int
}

// ringProto is a Protocol whose first TTL and widening schedule are
// fixed by the test; it records every request.
type ringProto struct {
	s     *sim.Simulator
	first int
	widen map[int]int
	sent  []request
}

func (p *ringProto) SendRequest(dst packet.NodeID, ttl int) {
	p.sent = append(p.sent, request{p.s.Now(), dst, ttl})
}
func (p *ringProto) FirstTTL(packet.NodeID) int { return p.first }
func (p *ringProto) WidenTTL(ttl int) int       { return p.widen[ttl] }

func newCore(t *testing.T, cfg Config, proto *ringProto) (*sim.Simulator, *Core, *stubOut) {
	t.Helper()
	s := sim.New(1)
	proto.s = s
	out := &stubOut{}
	var ids packet.IDGen
	c, err := New(s, 0, out, &ids, cfg, proto)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, out
}

func dataTo(dst packet.NodeID) *packet.Packet {
	return &packet.Packet{Kind: packet.KindData, Dst: dst, Size: 1000}
}

func TestConfigValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.DiscoveryTimeout = 0 },
		func(c *Config) { c.Retries = -1 },
		func(c *Config) { c.MaxBuffered = 0 },
		func(c *Config) { c.BroadcastJitter = -1 },
		func(c *Config) { c.SeenCacheSize = -1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
		var ids packet.IDGen
		if _, err := New(sim.New(1), 0, &stubOut{}, &ids, cfg, &ringProto{}); err == nil {
			t.Fatalf("New accepted bad config %d", i)
		}
	}
}

// The duplicate-request cache is bounded: FIFO eviction keeps the map at
// the configured capacity while still suppressing recent duplicates.
func TestSeenCacheBounded(t *testing.T) {
	for _, capacity := range []int{3, 4} {
		c := newSeenCache(capacity)
		n := 10
		for i := 0; i < n; i++ {
			c.add(rreqKey{src: 1, id: uint32(i)})
		}
		if len(c.m) != capacity || len(c.order) != capacity {
			t.Fatalf("cap %d: cache size = %d/%d", capacity, len(c.m), len(c.order))
		}
		for i := 0; i < n; i++ {
			if want := i >= n-capacity; c.has(rreqKey{src: 1, id: uint32(i)}) != want {
				t.Fatalf("cap %d: key %d present = %v, want %v (FIFO eviction)", capacity, i, !want, want)
			}
		}
		// Re-adding an existing key is a no-op, not a duplicate slot.
		c.add(rreqKey{src: 1, id: uint32(n - 1)})
		if len(c.m) != capacity || len(c.order) != capacity {
			t.Fatalf("cap %d: duplicate add grew the cache", capacity)
		}
	}
}

func TestDuplicateAndOwnRequests(t *testing.T) {
	_, c, _ := newCore(t, DefaultConfig(), &ringProto{})
	if c.Duplicate(4, 1) || !c.Duplicate(4, 1) {
		t.Fatal("a request must be new once, then a duplicate")
	}
	id := c.NewRequest()
	if id != 1 || !c.Duplicate(0, id) {
		t.Fatalf("own request %d not suppressed when its flood comes back", id)
	}
	if c.Stats.RREQSent != 1 {
		t.Fatalf("RREQSent = %d, want 1", c.Stats.RREQSent)
	}
}

func TestBufferFullDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBuffered = 2
	proto := &ringProto{}
	_, c, out := newCore(t, cfg, proto)
	for i := 0; i < 3; i++ {
		c.Buffer(dataTo(7))
	}
	if len(proto.sent) != 1 || c.Stats.Discoveries != 1 {
		t.Fatalf("requests = %d, discoveries = %d; want one discovery for one destination",
			len(proto.sent), c.Stats.Discoveries)
	}
	if len(out.dropped) != 1 || out.dropped[0].reason != "discovery buffer full" {
		t.Fatalf("drops = %+v, want the third packet dropped as buffer full", out.dropped)
	}
}

// Network-wide retries back off binarily: T, 2T, 4T, then the
// discovery gives up after a last 8T wait and drops its buffer.
func TestBackoffSchedule(t *testing.T) {
	cfg := DefaultConfig()
	T := cfg.DiscoveryTimeout
	proto := &ringProto{}
	s, c, out := newCore(t, cfg, proto)
	c.Buffer(dataTo(7))
	c.Buffer(dataTo(7))
	s.Run(15*T - 1)
	want := []sim.Time{0, T, 3 * T, 7 * T}
	if len(proto.sent) != len(want) {
		t.Fatalf("requests = %+v, want at %v", proto.sent, want)
	}
	for i, r := range proto.sent {
		if r.at != want[i] || r.ttl != 0 {
			t.Fatalf("request %d = %+v, want network-wide at %v", i, r, want[i])
		}
	}
	if len(out.dropped) != 0 {
		t.Fatal("gave up before the last backoff expired")
	}
	s.Run(15 * T)
	if len(out.dropped) != 2 || out.dropped[0].reason != "no route after retries" {
		t.Fatalf("drops = %+v, want both buffered packets dropped", out.dropped)
	}
	if c.Stats.DiscoveryErr != 1 {
		t.Fatalf("DiscoveryErr = %d, want 1", c.Stats.DiscoveryErr)
	}
	if _, ok := c.Complete(7); ok {
		t.Fatal("a failed discovery is still pending")
	}
}

// Widening the ring consumes no retry and waits the plain timeout;
// binary backoff starts with the first network-wide flood.
func TestRingWideningConsumesNoRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Retries = 1
	T := cfg.DiscoveryTimeout
	proto := &ringProto{first: 2, widen: map[int]int{2: 4, 4: 6, 6: 0}}
	s, c, out := newCore(t, cfg, proto)
	c.Buffer(dataTo(7))
	s.Run(6*T - 1)
	want := []request{{0, 7, 2}, {T, 7, 4}, {2 * T, 7, 6}, {3 * T, 7, 0}, {4 * T, 7, 0}}
	if len(proto.sent) != len(want) {
		t.Fatalf("requests = %+v, want %+v", proto.sent, want)
	}
	for i := range want {
		if proto.sent[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, proto.sent[i], want[i])
		}
	}
	if len(out.dropped) != 0 {
		t.Fatal("ring attempts consumed the retry budget")
	}
	s.Run(6 * T)
	if len(out.dropped) != 1 {
		t.Fatalf("drops = %+v, want the give-up after the one retry's 2T wait", out.dropped)
	}
}

func TestCompleteHandsBackBuffer(t *testing.T) {
	proto := &ringProto{}
	s, c, out := newCore(t, DefaultConfig(), proto)
	a, b := dataTo(7), dataTo(7)
	c.Buffer(a)
	c.Buffer(dataTo(8))
	c.Buffer(b)
	buf, ok := c.Complete(7)
	if !ok || len(buf) != 2 || buf[0] != a || buf[1] != b {
		t.Fatalf("Complete = %v, %v; want the two packets for 7 in arrival order", buf, ok)
	}
	if c.Stats.DiscoveryOK != 1 {
		t.Fatalf("DiscoveryOK = %d, want 1", c.Stats.DiscoveryOK)
	}
	if _, ok := c.Complete(7); ok {
		t.Fatal("a completed discovery is still pending")
	}
	// The completed discovery's timer is stopped: only 8's retries and
	// give-up follow.
	s.Run(60 * sim.Second)
	for _, r := range proto.sent {
		if r.dst == 7 && r.at > 0 {
			t.Fatalf("request for 7 at %v after Complete", r.at)
		}
	}
	if len(out.dropped) != 1 || out.dropped[0].dst != 8 {
		t.Fatalf("drops = %+v, want only 8's packet", out.dropped)
	}
}

// Reset drops every buffered packet in destination order, stops the
// discovery timers, forgets seen requests and restarts request IDs.
func TestResetDropsInDestinationOrder(t *testing.T) {
	proto := &ringProto{}
	s, c, out := newCore(t, DefaultConfig(), proto)
	for _, dst := range []packet.NodeID{9, 3, 9, 5, 3} {
		c.Buffer(dataTo(dst))
	}
	c.NewRequest()
	c.Duplicate(4, 1)
	c.Reset()
	want := []packet.NodeID{3, 3, 5, 9, 9}
	if len(out.dropped) != len(want) {
		t.Fatalf("drops = %+v, want %v", out.dropped, want)
	}
	for i, d := range out.dropped {
		if d.dst != want[i] || d.reason != "router reset" {
			t.Fatalf("drop %d = %+v, want dst %v as router reset", i, d, want[i])
		}
	}
	sent := len(proto.sent)
	s.Run(60 * sim.Second)
	if len(proto.sent) != sent || len(out.dropped) != len(want) {
		t.Fatal("a discovery timer survived Reset")
	}
	if c.Duplicate(4, 1) {
		t.Fatal("the duplicate cache survived Reset")
	}
	if id := c.NewRequest(); id != 1 {
		t.Fatalf("first request ID after Reset = %d, want 1", id)
	}
	if c.Stats.Discoveries != 3 {
		t.Fatalf("Discoveries = %d; stats must survive Reset", c.Stats.Discoveries)
	}
}
