package phy

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// stubMAC records every upcall.
type stubMAC struct {
	busy, idle int
	rx         []rxEvent
	txDone     int
}

type rxEvent struct {
	pkt *packet.Packet
	ok  bool
}

func (m *stubMAC) OnCarrierBusy()                      { m.busy++ }
func (m *stubMAC) OnCarrierIdle()                      { m.idle++ }
func (m *stubMAC) OnReceive(p *packet.Packet, ok bool) { m.rx = append(m.rx, rxEvent{p, ok}) }
func (m *stubMAC) OnTxDone(p *packet.Packet)           { m.txDone++ }

func newTestChannel(t *testing.T, seed int64, cfg Config) (*sim.Simulator, *Channel) {
	t.Helper()
	s := sim.New(seed)
	ch, err := NewChannel(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ch
}

func dataPkt(uid uint64, size int) *packet.Packet {
	return &packet.Packet{UID: uid, Kind: packet.KindData, Size: size}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero tx range", func(c *Config) { c.TxRange = 0 }},
		{"cs below tx", func(c *Config) { c.CSRange = 100 }},
		{"zero data rate", func(c *Config) { c.DataRate = 0 }},
		{"zero basic rate", func(c *Config) { c.BasicRate = 0 }},
		{"per out of range", func(c *Config) { c.PacketErrorRate = 1 }},
		{"negative per", func(c *Config) { c.PacketErrorRate = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestTxTime(t *testing.T) {
	_, ch := newTestChannel(t, 1, DefaultConfig())
	// 1000 bytes at 2 Mbps = 4 ms payload + 192 us preamble.
	got := ch.TxTime(1000, false)
	want := 192*sim.Microsecond + 4*sim.Millisecond
	if got != want {
		t.Fatalf("TxTime(1000,data) = %v, want %v", got, want)
	}
	// Control frames ride the 1 Mbps basic rate.
	got = ch.TxTime(14, true)
	want = 192*sim.Microsecond + 112*sim.Microsecond
	if got != want {
		t.Fatalf("TxTime(14,control) = %v, want %v", got, want)
	}
}

func TestDeliveryWithinRange(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a := &stubMAC{}
	b := &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)

	pkt := dataPkt(1, 1000)
	ra.Transmit(pkt, ch.TxTime(1000, false))
	s.RunAll()

	if len(b.rx) != 1 || !b.rx[0].ok || b.rx[0].pkt != pkt {
		t.Fatalf("receiver got %+v, want one intact frame", b.rx)
	}
	if a.txDone != 1 {
		t.Fatalf("sender OnTxDone = %d, want 1", a.txDone)
	}
	if b.busy != 1 || b.idle != 1 {
		t.Fatalf("receiver carrier busy/idle = %d/%d, want 1/1", b.busy, b.idle)
	}
	if len(a.rx) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestNoDeliveryBeyondTxRange(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b, c := &stubMAC{}, &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 400}, b) // in CS range, beyond RX range
	ch.AddRadio(topo.Position{X: 600}, c) // beyond CS range

	ra.Transmit(dataPkt(1, 500), ch.TxTime(500, false))
	s.RunAll()

	if len(b.rx) != 0 {
		t.Fatal("node beyond TX range received a frame")
	}
	if b.busy != 1 {
		t.Fatal("node in CS range should sense carrier")
	}
	if c.busy != 0 || len(c.rx) != 0 {
		t.Fatal("node beyond CS range sensed or received")
	}
}

func TestCollisionAtReceiver(t *testing.T) {
	// Hidden-terminal layout: A and C both reach B but not each other.
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b, c := &stubMAC{}, &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)
	rc := ch.AddRadio(topo.Position{X: 500 + 100}, c) // 600 m from A: hidden

	p1, p2 := dataPkt(1, 1000), dataPkt(2, 1000)
	air := ch.TxTime(1000, false)
	ra.Transmit(p1, air)
	s.Schedule(air/2, func() { rc.Transmit(p2, air) })
	s.RunAll()

	// B must see exactly one reception attempt (the first frame), marked
	// corrupted; the overlapping frame is never captured.
	if len(b.rx) != 1 {
		t.Fatalf("receiver rx events = %d, want 1", len(b.rx))
	}
	if b.rx[0].ok {
		t.Fatal("overlapping frames were delivered intact")
	}
	_, _, collided, _ := ch.radios[1].Stats()
	if collided != 1 {
		t.Fatalf("collided counter = %d, want 1", collided)
	}
}

func TestInterferenceOnlySignalCorrupts(t *testing.T) {
	// D is 400 m from B: inside CS/interference range, outside RX range.
	// Its signal must corrupt B's ongoing reception from A.
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b, d := &stubMAC{}, &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)
	rd := ch.AddRadio(topo.Position{X: 650}, d) // 400 m from B, 650 m from A

	air := ch.TxTime(1000, false)
	ra.Transmit(dataPkt(1, 1000), air)
	s.Schedule(air/2, func() { rd.Transmit(dataPkt(2, 1000), air) })
	s.RunAll()

	if len(b.rx) != 1 || b.rx[0].ok {
		t.Fatalf("interference did not corrupt reception: %+v", b.rx)
	}
}

func TestHalfDuplexMissesWhileTransmitting(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	rb := ch.AddRadio(topo.Position{X: 250}, b)

	air := ch.TxTime(1000, false)
	// Both transmit simultaneously: neither receives the other's frame.
	ra.Transmit(dataPkt(1, 1000), air)
	rb.Transmit(dataPkt(2, 1000), air)
	s.RunAll()

	if len(a.rx) != 0 || len(b.rx) != 0 {
		t.Fatalf("half-duplex violated: a=%d b=%d rx events", len(a.rx), len(b.rx))
	}
}

func TestTransmitDuringReceptionDestroysFrame(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	rb := ch.AddRadio(topo.Position{X: 250}, b)

	air := ch.TxTime(1000, false)
	ra.Transmit(dataPkt(1, 1000), air)
	// B starts its own transmission mid-reception.
	s.Schedule(air/2, func() { rb.Transmit(dataPkt(2, 100), ch.TxTime(100, false)) })
	s.RunAll()

	for _, e := range b.rx {
		if e.pkt.UID == 1 {
			t.Fatal("frame delivered despite receiver transmitting")
		}
	}
}

func TestSequentialFramesBothDelivered(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)

	air := ch.TxTime(500, false)
	ra.Transmit(dataPkt(1, 500), air)
	s.Schedule(air+sim.Millisecond, func() { ra.Transmit(dataPkt(2, 500), air) })
	s.RunAll()

	if len(b.rx) != 2 || !b.rx[0].ok || !b.rx[1].ok {
		t.Fatalf("sequential frames: %+v", b.rx)
	}
	if b.busy != 2 || b.idle != 2 {
		t.Fatalf("busy/idle transitions = %d/%d, want 2/2", b.busy, b.idle)
	}
}

func TestPacketErrorRateDropsFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketErrorRate = 0.5
	s, ch := newTestChannel(t, 42, cfg)
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)

	const n = 400
	air := ch.TxTime(100, false)
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(sim.Time(i)*10*sim.Millisecond, func() {
			ra.Transmit(dataPkt(uint64(i), 100), air)
		})
	}
	s.RunAll()

	okCount := 0
	for _, e := range b.rx {
		if e.ok {
			okCount++
		}
	}
	if len(b.rx) != n {
		t.Fatalf("rx events = %d, want %d", len(b.rx), n)
	}
	// Expect roughly half; allow generous slack for a 400-sample draw.
	if okCount < n/2-60 || okCount > n/2+60 {
		t.Fatalf("okCount = %d with PER 0.5 over %d frames", okCount, n)
	}
}

func TestControlFramesExemptFromPacketErrorRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketErrorRate = 0.9
	s, ch := newTestChannel(t, 7, cfg)
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)

	air := ch.TxTime(14, true)
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(sim.Time(i)*5*sim.Millisecond, func() {
			ra.Transmit(&packet.Packet{UID: uint64(i), Kind: packet.KindMACControl, Size: 14}, air)
		})
	}
	s.RunAll()

	for _, e := range b.rx {
		if !e.ok {
			t.Fatal("MAC control frame dropped by PacketErrorRate")
		}
	}
	if len(b.rx) != 50 {
		t.Fatalf("control frames delivered = %d, want 50", len(b.rx))
	}
}

func TestMobilityChangesConnectivity(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)

	air := ch.TxTime(100, false)
	ra.Transmit(dataPkt(1, 100), air)
	s.Schedule(10*sim.Millisecond, func() {
		ch.SetPosition(1, topo.Position{X: 5000}) // move B out of range
		ra.Transmit(dataPkt(2, 100), air)
	})
	s.RunAll()

	if len(b.rx) != 1 || b.rx[0].pkt.UID != 1 {
		t.Fatalf("after moving away, rx = %+v", b.rx)
	}
}

func TestStatsCounters(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b := &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	rb := ch.AddRadio(topo.Position{X: 250}, b)

	ra.Transmit(dataPkt(1, 100), ch.TxTime(100, false))
	s.RunAll()

	sent, _, _, _ := ra.Stats()
	_, delivered, _, _ := rb.Stats()
	if sent != 1 || delivered != 1 {
		t.Fatalf("sent=%d delivered=%d, want 1/1", sent, delivered)
	}
	if ra.ID() != 0 || rb.ID() != 1 {
		t.Fatal("radio IDs not assigned in attach order")
	}
	if rb.Position().X != 250 {
		t.Fatal("position accessor wrong")
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	ra := ch.AddRadio(topo.Position{X: 0}, &stubMAC{})
	ra.Transmit(dataPkt(1, 100), ch.TxTime(100, false))
	defer func() {
		if recover() == nil {
			t.Fatal("double Transmit did not panic")
		}
	}()
	ra.Transmit(dataPkt(2, 100), ch.TxTime(100, false))
	s.RunAll()
}

func TestCaptureStrongerSignalSurvives(t *testing.T) {
	// Receiver at 250 m from the sender; interferer 500 m away (2 hops
	// down a chain). Two-ray r^-4: power ratio 16 >= capture ratio 10,
	// so the reception survives the overlap.
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b, c := &stubMAC{}, &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)
	rc := ch.AddRadio(topo.Position{X: 750}, c) // 500 m from B

	air := ch.TxTime(1000, false)
	ra.Transmit(dataPkt(1, 1000), air)
	s.Schedule(air/2, func() { rc.Transmit(dataPkt(2, 1000), air) })
	s.RunAll()

	if len(b.rx) != 1 || !b.rx[0].ok {
		t.Fatalf("capture failed: %+v", b.rx)
	}
}

func TestCaptureComparableSignalsCollide(t *testing.T) {
	// Interferer at 350 m from the receiver: ratio (350/250)^4 ~ 3.8 <
	// 10, not capturable.
	s, ch := newTestChannel(t, 1, DefaultConfig())
	a, b, c := &stubMAC{}, &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)
	rc := ch.AddRadio(topo.Position{X: 600}, c) // 350 m from B

	air := ch.TxTime(1000, false)
	ra.Transmit(dataPkt(1, 1000), air)
	s.Schedule(air/2, func() { rc.Transmit(dataPkt(2, 1000), air) })
	s.RunAll()

	if len(b.rx) != 1 || b.rx[0].ok {
		t.Fatalf("comparable overlap did not collide: %+v", b.rx)
	}
}

func TestCaptureDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CaptureRatio = 0
	s, ch := newTestChannel(t, 1, cfg)
	a, b, c := &stubMAC{}, &stubMAC{}, &stubMAC{}
	ra := ch.AddRadio(topo.Position{X: 0}, a)
	ch.AddRadio(topo.Position{X: 250}, b)
	rc := ch.AddRadio(topo.Position{X: 750}, c)

	air := ch.TxTime(1000, false)
	ra.Transmit(dataPkt(1, 1000), air)
	s.Schedule(air/2, func() { rc.Transmit(dataPkt(2, 1000), air) })
	s.RunAll()

	if len(b.rx) != 1 || b.rx[0].ok {
		t.Fatal("overlap survived with capture disabled")
	}
}

func TestCaptureValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CaptureRatio = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative capture ratio accepted")
	}
	cfg = DefaultConfig()
	cfg.PathLossExponent = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("capture without path-loss exponent accepted")
	}
}
