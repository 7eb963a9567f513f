package phy

import (
	"math"
	"sort"
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// fanKey is one signal event as the engine fires it: its key and what it
// did, read off the radios' state (a start raises one receiver's sensed
// count, an end lowers it, a tx-done clears the transmitter's flag).
type fanKey struct {
	at    sim.Time
	seq   uint64
	radio int
	delta int // +1 start, -1 end, 0 tx-done
}

// perEventKeys is the reference keying: one schedule call per signal
// event, receivers in ID order (start then end), the tx-done last. Down
// and muted receivers take no sequence numbers.
func perEventKeys(ch *Channel, tx *Radio, t0 sim.Time, s0 uint64, air sim.Time) []fanKey {
	var ids []int
	for _, o := range ch.radios {
		d := topo.Dist(tx.pos, o.pos)
		if o == tx || d > ch.cfg.CSRange || o.down || !ch.linkOpen(tx.id, o.id) {
			continue
		}
		ids = append(ids, o.id)
	}
	var keys []fanKey
	seq := s0
	for _, id := range ids {
		delay := ch.propDelay(topo.Dist(tx.pos, ch.radios[id].pos))
		keys = append(keys,
			fanKey{at: t0 + delay, seq: seq, radio: id, delta: +1},
			fanKey{at: t0 + delay + air, seq: seq + 1, radio: id, delta: -1})
		seq += 2
	}
	return append(keys, fanKey{at: t0 + air, seq: seq, radio: tx.id})
}

// TestFanoutKeysMatchPerEventSchedule checks the fanout cursor against
// perEventKeys on a medium wide enough that the farthest propagation
// delays exceed a control frame's airtime: the (at, seq) stream and what
// each event did must equal the reference's 2k+1 keys per frame, sorted. One receiver is down, one link is muted,
// two receivers tie on delay, and a second frame from another radio
// overlaps the first.
func TestFanoutKeysMatchPerEventSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxRange = 120e3
	cfg.CSRange = 400e3
	s, ch := newTestChannel(t, 1, cfg)
	air := ch.TxTime(14, true) // an ACK: 304 us, about 91 km of flight
	// Distances from radio 0 (km): IDs deliberately out of delay order,
	// radios 3 and 4 tie at 150 km, radio 6 is down, 0->7 is muted.
	// Radio 10 shares radio 0's position, so its end ties with the
	// tx-done; radio 11's end (10 us + air) ties with radio 12's start
	// (314 us). Each tie must break by sequence number.
	dists := []float64{0, 300, 20, 150, 150, 95, 60, 110, 380, 5, 0, 2.99792458, 94.13483181}
	var radios []*Radio
	for i, km := range dists {
		ang := float64(i) * 0.7
		pos := topo.Position{X: km * 1e3 * math.Cos(ang), Y: km * 1e3 * math.Sin(ang)}
		radios = append(radios, ch.AddRadio(pos, &stubMAC{}))
	}
	radios[6].SetDown(true)
	ch.SetLinkBlocked(0, 7, true)
	if d := ch.propDelay(topo.Dist(radios[0].pos, radios[8].pos)); d <= air {
		t.Fatalf("farthest delay %v does not exceed the airtime %v", d, air)
	}
	d11 := ch.propDelay(topo.Dist(radios[0].pos, radios[11].pos))
	if d12 := ch.propDelay(topo.Dist(radios[0].pos, radios[12].pos)); d11+air != d12 {
		t.Fatalf("radio 11 ends at %v, radio 12 starts at %v: no tie", d11+air, d12)
	}

	type snap struct {
		sensed []int
		tx     []bool
	}
	take := func() snap {
		sn := snap{sensed: make([]int, len(radios)), tx: make([]bool, len(radios))}
		for i, r := range radios {
			sn.sensed[i], sn.tx[i] = r.sensed, r.transmitting
		}
		return sn
	}
	var got []fanKey
	var prev snap
	// settle attributes the state change since the last hook call to the
	// event that fired then.
	settle := func() {
		if len(got) == 0 {
			return
		}
		now := take()
		k := &got[len(got)-1]
		k.radio = -1
		for i := range radios {
			switch {
			case now.sensed[i] != prev.sensed[i]:
				if k.radio >= 0 {
					t.Fatalf("event (%v,%d) changed radios %d and %d", k.at, k.seq, k.radio, i)
				}
				k.radio, k.delta = i, now.sensed[i]-prev.sensed[i]
			case prev.tx[i] && !now.tx[i]:
				if k.radio >= 0 {
					t.Fatalf("event (%v,%d) changed radios %d and %d", k.at, k.seq, k.radio, i)
				}
				k.radio = i
			}
		}
	}
	s.SetEventHook(func(at sim.Time, seq uint64) {
		settle()
		prev = take()
		got = append(got, fanKey{at: at, seq: seq})
	})

	var want []fanKey
	second := 250 * sim.Microsecond
	s.At(second, func() {
		// Radio 9 sends a data frame while frame one is still arriving.
		s0 := s.Reserve(0)
		dataAir := ch.TxTime(1000, false)
		want = append(want, perEventKeys(ch, radios[9], s.Now(), s0, dataAir)...)
		radios[9].Transmit(&packet.Packet{Kind: packet.KindData, Size: 1000}, dataAir)
	})
	s0 := s.Reserve(0)
	want = append(want, perEventKeys(ch, radios[0], 0, s0, air)...)
	radios[0].Transmit(&packet.Packet{Kind: packet.KindMACControl, Size: 14}, air)
	s.RunAll()
	settle()

	// The At event itself fires too; it changes no radio state.
	want = append(want, fanKey{at: second, seq: 0, radio: -1})
	sort.Slice(want, func(i, j int) bool {
		return want[i].at < want[j].at || (want[i].at == want[j].at && want[i].seq < want[j].seq)
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d events, the per-event keying has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Frame one reaches ten radios (not the down 6 or the muted 7),
	// frame two eleven; the six radios 94 km or more away hear frame one
	// start after its tx-done.
	if s0 != 1 || len(want) != 1+(2*10+1)+(2*11+1) {
		t.Fatalf("unexpected fanout shape: %d keys from s0 %d", len(want), s0)
	}
	late := 0
	for _, k := range want {
		if k.delta == +1 && k.seq < s0+2*10 && k.at > air {
			late++
		}
	}
	if late != 6 {
		t.Fatalf("%d receivers start after frame one's tx-done, want 6", late)
	}
	if s.Pending() != 0 || len(ch.fanouts) != 2 {
		t.Fatalf("after the run: %d pending events, %d pooled fanouts (want 0, 2)", s.Pending(), len(ch.fanouts))
	}
}

// TestFanoutOneQueueEntryPerFrame pins the medium's queue footprint: a
// frame heard by a dozen radios occupies one queue entry at a time.
func TestFanoutOneQueueEntryPerFrame(t *testing.T) {
	s, ch := newTestChannel(t, 1, DefaultConfig())
	var radios []*Radio
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			radios = append(radios, ch.AddRadio(topo.Position{X: float64(c) * 200, Y: float64(r) * 200}, &stubMAC{}))
		}
	}
	radios[12].Transmit(dataPkt(1, 1000), ch.TxTime(1000, false))
	if n := s.QueueLen(); n != 1 {
		t.Fatalf("queue holds %d entries after one Transmit, want 1", n)
	}
	max := 0
	s.SetEventHook(func(sim.Time, uint64) {
		if n := s.QueueLen(); n > max {
			max = n
		}
	})
	s.RunAll()
	if max != 1 || s.EventsExecuted() != uint64(2*len(radios[12].nb)+1) {
		t.Fatalf("max queue %d, events %d; want 1 and %d", max, s.EventsExecuted(), 2*len(radios[12].nb)+1)
	}
}
