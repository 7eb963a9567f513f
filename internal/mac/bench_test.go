package mac

import (
	"testing"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// DCF microbenchmark: two stations contend for one receiver, each
// delivering one RTS/CTS/DATA/ACK-protected data frame per iteration.
// Equal backoff draws collide, so the timeout, CW-doubling and retry
// paths run too. Like the medium benchmarks it reports events/s so the
// CI benchmark gate can compare it against BENCH_sim.json.

// exchangeUpper is an allocation-free network layer holding at most one
// frame to send; unlike stubUpper it records nothing, so a steady-state
// exchange measures only the MAC, the medium and the engine.
type exchangeUpper struct {
	next      *packet.Packet
	delivered int
}

func (u *exchangeUpper) OnMACReceive(*packet.Packet) { u.delivered++ }
func (u *exchangeUpper) OnTxSuccess(*packet.Packet)  {}
func (u *exchangeUpper) OnTxFail(*packet.Packet)     {}
func (u *exchangeUpper) NextFrame() *packet.Packet {
	p := u.next
	u.next = nil
	return p
}

// exchangeBench is the contended-exchange world: senders 0 and 2 sit
// 200 m either side of receiver 1, in range of each other.
type exchangeBench struct {
	sim     *sim.Simulator
	macs    [3]*DCF
	uppers  [3]*exchangeUpper
	frames  [2]*packet.Packet // pre-built data frames of senders 0 and 2
	nextUID uint64
}

func newExchangeBench(tb testing.TB) *exchangeBench {
	tb.Helper()
	s := sim.New(1)
	ch, err := phy.NewChannel(s, phy.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	x := &exchangeBench{sim: s}
	for i := range x.macs {
		x.uppers[i] = &exchangeUpper{}
		holder := &deferredMAC{}
		radio := ch.AddRadio(topo.Position{X: float64(i) * 200}, holder)
		m, err := New(s, radio, packet.NodeID(i), x.uppers[i], DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		holder.m = m
		x.macs[i] = m
	}
	for i := range x.frames {
		x.frames[i] = &packet.Packet{Kind: packet.KindData, Size: 1000, MACDst: 1}
	}
	return x
}

// exchange hands each sender its data frame under a fresh UID (so the
// receiver's duplicate filter passes it up) and runs both deliveries to
// completion.
func (x *exchangeBench) exchange() {
	for i, sender := range [2]int{0, 2} {
		x.nextUID++
		x.frames[i].UID = x.nextUID
		x.uppers[sender].next = x.frames[i]
		x.macs[sender].Kick()
	}
	x.sim.RunAll()
}

func BenchmarkDCFExchange(b *testing.B) {
	x := newExchangeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.exchange()
	}
	b.ReportMetric(float64(x.sim.EventsExecuted())/b.Elapsed().Seconds(), "events/s")
}

// TestDCFExchangeAllocFree pins the allocation-free frame path: once the
// engine's event pool and the medium's fanout pool are warm, a contended
// RTS/CTS/DATA/ACK exchange with backoff allocates nothing. A closure or
// method value handed to Schedule, or a control frame built per
// exchange, shows up here as allocs > 0.
func TestDCFExchangeAllocFree(t *testing.T) {
	x := newExchangeBench(t)
	for i := 0; i < 50; i++ {
		x.exchange()
	}
	before := x.uppers[1].delivered
	events := x.sim.EventsExecuted()
	if allocs := testing.AllocsPerRun(100, x.exchange); allocs != 0 {
		t.Fatalf("steady-state DCF exchange allocates %.1f objects, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up run to the 100 it measures.
	if got := x.uppers[1].delivered - before; got != 2*101 {
		t.Fatalf("receiver took %d frames over 101 exchanges, want %d", got, 2*101)
	}
	st := x.macs[0].Stats()
	if st.Retries == 0 {
		t.Fatal("no retries: the senders never contended, so backoff after collision went unexercised")
	}
	if per := float64(x.sim.EventsExecuted()-events) / 101; per < 20 {
		t.Fatalf("%.1f events per exchange, want a full RTS/CTS/DATA/ACK pair", per)
	}
}
