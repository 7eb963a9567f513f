package mac

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// timelineMAC forwards every upcall to a DCF and logs, for each frame
// its radio finishes sending, when it left the air and the frame's
// control type and NAV Duration, and after every frame it receives
// intact, the MAC's NAV expiry.
type timelineMAC struct {
	deferredMAC
	sim  *sim.Simulator
	sent []timelineFrame
	navs []sim.Time
}

type timelineFrame struct {
	end  sim.Time
	ctrl packet.Ctrl
	kind packet.Kind
	dur  int64
}

func (x *timelineMAC) OnTxDone(p *packet.Packet) {
	x.sent = append(x.sent, timelineFrame{end: x.sim.Now(), ctrl: p.Ctrl, kind: p.Kind, dur: p.MACDur})
	x.m.OnTxDone(p)
}

func (x *timelineMAC) OnReceive(p *packet.Packet, ok bool) {
	x.m.OnReceive(p, ok)
	if ok {
		x.navs = append(x.navs, x.m.navUntil)
	}
}

// TestExchangeTimeline checks one RTS/CTS/DATA/ACK exchange on an idle
// medium against offsets computed by hand from the 802.11 DSSS
// parameters of Table 5.1: DIFS 50 us, slot 20 us, SIFS 10 us, a 192 us
// PLCP preamble and header on every frame, control frames at the 1 Mb/s
// basic rate and data at 2 Mb/s. Sender A sits at 0 m, receiver B at
// 200 m and bystander C at 100 m, so every hop adds the rounded
// propagation delay of its distance. Each frame's NAV Duration and C's
// NAV after each frame it overhears are checked too.
func TestExchangeTimeline(t *testing.T) {
	const (
		us      = sim.Microsecond
		difs    = 50 * us
		slot    = 20 * us
		sifs    = 10 * us
		rtsAir  = 192*us + 160*us      // 20 B at 1 Mb/s
		ctsAir  = 192*us + 112*us      // 14 B at 1 Mb/s
		ackAir  = 192*us + 112*us      // 14 B at 1 Mb/s
		dataAir = 192*us + 4112*us     // 1000 B payload + 28 B header at 2 Mb/s
		ab      = 667 * sim.Nanosecond // 200 m / c = 667.1 ns
		ac, bc  = 334 * sim.Nanosecond, 334 * sim.Nanosecond
		rtsDur  = 3*sifs + ctsAir + dataAir + ackAir // 4942 us
		ctsDur  = rtsDur - sifs - ctsAir             // 4628 us
		dataDur = sifs + ackAir                      // 314 us
		seed    = 5
	)
	// The backoff draw, CWMin+1 = 32 slot counts, is the run's first
	// random number. Seed 5 draws 10.
	slots := sim.Time(sim.New(seed).Rand().Intn(DefaultConfig().CWMin + 1))
	if slots == 0 {
		t.Fatal("seed 5 draws no backoff slots")
	}

	s := sim.New(seed)
	ch, err := phy.NewChannel(s, phy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var x [3]*timelineMAC
	var ups [3]*stubUpper
	for i, pos := range []topo.Position{{X: 0}, {X: 200}, {X: 100}} {
		x[i] = &timelineMAC{sim: s}
		ups[i] = &stubUpper{}
		m, err := New(s, ch.AddRadio(pos, x[i]), packet.NodeID(i), ups[i], DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		x[i].m = m
	}
	data := frameTo(1, 1000)
	ups[0].queue = append(ups[0].queue, data)
	x[0].m.Kick()
	s.Run(sim.Second)

	rtsEnd := difs + slots*slot + rtsAir
	ctsEnd := rtsEnd + ab + sifs + ctsAir
	dataEnd := ctsEnd + ab + sifs + dataAir
	ackEnd := dataEnd + ab + sifs + ackAir
	want := map[int][]timelineFrame{
		0: {
			{end: rtsEnd, kind: packet.KindMACControl, ctrl: packet.CtrlRTS, dur: int64(rtsDur)},
			{end: dataEnd, kind: packet.KindData, dur: int64(dataDur)},
		},
		1: {
			{end: ctsEnd, kind: packet.KindMACControl, ctrl: packet.CtrlCTS, dur: int64(ctsDur)},
			{end: ackEnd, kind: packet.KindMACControl, ctrl: packet.CtrlACK, dur: 0},
		},
	}
	for node, frames := range want {
		got := x[node].sent
		if len(got) != len(frames) {
			t.Fatalf("node %d sent %d frames, want %d: %+v", node, len(got), len(frames), got)
		}
		for i := range frames {
			if got[i] != frames[i] {
				t.Errorf("node %d frame %d = %+v, want %+v", node, i, got[i], frames[i])
			}
		}
	}
	if len(ups[1].received) != 1 || ups[1].received[0] != data || len(ups[0].succeeded) != 1 {
		t.Fatalf("B received %d frames, A saw %d successes; want 1 and 1", len(ups[1].received), len(ups[0].succeeded))
	}
	// C overhears all four frames. The RTS, CTS and DATA each push its
	// NAV out to the frame's arrival plus its Duration; the ACK carries
	// Duration 0 and leaves it alone.
	navs := []sim.Time{
		rtsEnd + ac + rtsDur,
		ctsEnd + bc + ctsDur,
		dataEnd + ac + dataDur,
		dataEnd + ac + dataDur,
	}
	if got := x[2].navs; len(got) != len(navs) {
		t.Fatalf("C received %d frames intact, want %d", len(got), len(navs))
	}
	for i, w := range navs {
		if got := x[2].navs[i]; got != w {
			t.Errorf("C's NAV after frame %d = %v, want %v", i, got, w)
		}
	}
	if len(x[2].sent) != 0 {
		t.Fatalf("bystander C sent %d frames", len(x[2].sent))
	}
}
