package mac

import (
	"fmt"
	"math"
	"testing"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// Saturation oracle: single-hop DCF throughput against Bianchi's Markov
// model ("Performance Analysis of the IEEE 802.11 Distributed
// Coordination Function", IEEE JSAC 2000). n stations that always have
// a frame queued send RTS/CTS-protected data to one receiver, all in
// range of each other, so every loss is a collision of equal backoff
// draws. The model is independent of this package's code: it sees only
// the contention window, the slot time and the airtime of each exchange.

// saturatedUpper always has another data frame for dst. uids is the
// station's run-local UID source: the subtests run in parallel, so they
// must not share the package-level uidGen.
type saturatedUpper struct {
	dst       packet.NodeID
	size      int
	uids      *packet.IDGen
	delivered int
}

func (u *saturatedUpper) OnMACReceive(*packet.Packet) { u.delivered++ }
func (u *saturatedUpper) OnTxSuccess(*packet.Packet)  {}
func (u *saturatedUpper) OnTxFail(*packet.Packet)     {}
func (u *saturatedUpper) NextFrame() *packet.Packet {
	return &packet.Packet{UID: u.uids.Next(), Kind: packet.KindData, Size: u.size, MACDst: u.dst}
}

// bianchiTau solves Bianchi's fixed point for the per-slot transmission
// probability tau of each of n saturated stations, with minimum window
// w and m window doublings.
func bianchiTau(n, w, m int) float64 {
	W := float64(w)
	tauOf := func(p float64) float64 {
		return 2 * (1 - 2*p) / ((1-2*p)*(W+1) + p*W*(1-math.Pow(2*p, float64(m))))
	}
	// g(tau) = tau(p(tau)) - tau is decreasing in tau; bisect its root.
	lo, hi := 0.0, 1.0
	for i := 0; i < 100; i++ {
		tau := (lo + hi) / 2
		p := 1 - math.Pow(1-tau, float64(n-1))
		if tauOf(p) > tau {
			lo = tau
		} else {
			hi = tau
		}
	}
	return (lo + hi) / 2
}

// bianchiRate is the model's rate of successful exchanges per second
// for n saturated stations, given the slot time sigma and the channel
// time ts of a success and tc of a collision.
func bianchiRate(n, w, m int, sigma, ts, tc sim.Time) float64 {
	tau := bianchiTau(n, w, m)
	ptr := 1 - math.Pow(1-tau, float64(n))
	ps := float64(n) * tau * math.Pow(1-tau, float64(n-1)) / ptr
	slot := (1-ptr)*sigma.Seconds() + ptr*ps*ts.Seconds() + ptr*(1-ps)*tc.Seconds()
	return ptr * ps / slot
}

func TestBianchiSaturationThroughput(t *testing.T) {
	const (
		size     = 1000
		duration = 30 * sim.Second
		radius   = 100.0
		tol      = 0.02
	)
	cfg := DefaultConfig()
	phyCfg := phy.DefaultConfig()
	// W = CWMin+1 = 32 and CWMax+1 = 1024 = 32·2^5.
	w := cfg.CWMin + 1
	m := int(math.Round(math.Log2(float64(cfg.CWMax+1) / float64(w))))
	s0 := sim.New(0)
	ch0, err := phy.NewChannel(s0, phyCfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := ch0.TxTime(packet.RTSSize, true)
	cts := ch0.TxTime(packet.CTSSize, true)
	ack := ch0.TxTime(packet.MACACKSize, true)
	data := ch0.TxTime(size+packet.MACHeaderSize, false)
	ts := rts + cts + data + ack + 3*cfg.SIFS + cfg.DIFS
	// Bystanders see a collided RTS as a corrupted frame and defer EIFS
	// (SIFS + ACK + DIFS, and ACK and CTS airtimes are equal).
	tc := rts + cfg.SIFS + cts + cfg.DIFS

	for _, n := range []int{1, 2, 5, 10, 20, 30} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			s := sim.New(int64(n))
			ch, err := phy.NewChannel(s, phyCfg)
			if err != nil {
				t.Fatal(err)
			}
			newDCF := func(id int, pos topo.Position, up Upper) *DCF {
				holder := &deferredMAC{}
				radio := ch.AddRadio(pos, holder)
				d, err := New(s, radio, packet.NodeID(id), up, cfg)
				if err != nil {
					t.Fatal(err)
				}
				holder.m = d
				return d
			}
			var uids packet.IDGen
			sink := &saturatedUpper{}
			newDCF(0, topo.Position{}, sink)
			for i := 1; i <= n; i++ {
				a := 2 * math.Pi * float64(i) / float64(n)
				d := newDCF(i, topo.Position{X: radius * math.Cos(a), Y: radius * math.Sin(a)},
					&saturatedUpper{dst: 0, size: size, uids: &uids})
				d.Kick()
			}
			s.Run(duration)

			got := float64(sink.delivered) / duration.Seconds()
			want := bianchiRate(n, w, m, cfg.SlotTime, ts, tc)
			if r := got / want; math.Abs(r-1) > tol {
				t.Fatalf("%d stations: %.1f frames/s, Bianchi predicts %.1f (ratio %.4f, tolerance %.0f%%)",
					n, got, want, r, tol*100)
			}
			t.Logf("%d stations: %.1f frames/s, Bianchi %.1f (ratio %.4f)", n, got, want, got/want)
		})
	}
}
