package tcp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

// TestQuickSenderInvariantsUnderRandomAcks throws arbitrary ACK streams
// (valid, stale, duplicate, out-of-range) at every variant and checks the
// structural invariants no input may violate:
//
//   - SndUna never decreases and never passes SndNxt,
//   - the congestion window never drops below one segment,
//   - acknowledged bytes never exceed transmitted bytes.
func TestQuickSenderInvariantsUnderRandomAcks(t *testing.T) {
	variants := []func() Variant{
		func() Variant { return NewTahoe() },
		func() Variant { return NewReno2() },
		func() Variant { return NewNewReno() },
		func() Variant { return NewSACK() },
		func() Variant { return NewVegas() },
		func() Variant { return NewVeno() },
		func() Variant { return NewWestwood() },
		func() Variant { return NewJersey() },
		func() Variant { return NewECNNewReno() },
		func() Variant { return NewCUBIC() },
		func() Variant { return NewBBRLite() },
	}
	f := func(seed int64, vIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := variants[int(vIdx)%len(variants)]()
		name := fmt.Sprintf("%T", v)
		s := sim.New(seed)
		var sentBytes int64
		send := func(p *packet.Packet) {
			sentBytes += int64(p.Size - packet.IPHeaderSize - packet.TCPHeaderSize)
		}
		snd, err := NewSender(s, send, SenderConfig{
			FlowID: 1, Dst: 4, MSS: 1000, AdvertisedWindow: 16,
		}, v)
		if err != nil {
			t.Fatal(err)
		}
		snd.Start()

		prevUna := snd.SndUna()
		for i := 0; i < 300; i++ {
			// Random time advance keeps RTO and per-RTT logic moving.
			s.Run(s.Now() + sim.Time(rng.Intn(50))*sim.Millisecond)

			// Random ACK: sometimes sensible, sometimes garbage.
			var ackNo int64
			switch rng.Intn(4) {
			case 0:
				ackNo = snd.SndUna() // duplicate
			case 1:
				ackNo = snd.SndUna() + int64(rng.Intn(3)+1)*1000 // progress
			case 2:
				ackNo = rng.Int63n(snd.SndNxt() + 5000) // arbitrary
			default:
				ackNo = snd.SndUna() - int64(rng.Intn(2000)) // stale
			}
			hdr := &packet.TCPHeader{FlowID: 1, Ack: ackNo, IsAck: true}
			if rng.Intn(3) == 0 {
				hdr.Echo = packet.MuzhaEcho{MRAI: rng.Intn(6), Marked: rng.Intn(2) == 0}
			}
			if rng.Intn(4) == 0 {
				start := rng.Int63n(snd.SndNxt() + 1000)
				hdr.SACK = []packet.SACKBlock{{Start: start, End: start + int64(rng.Intn(3000))}}
			}
			if rng.Intn(3) == 0 {
				hdr.TSEcho = rng.Int63n(int64(s.Now()) + 2)
			}
			snd.Recv(&packet.Packet{Kind: packet.KindData, TCP: hdr})

			if snd.SndUna() < prevUna {
				t.Fatalf("%s: SndUna went backwards: %d -> %d", name, prevUna, snd.SndUna())
			}
			prevUna = snd.SndUna()
			if snd.SndUna() > snd.SndNxt() {
				t.Fatalf("%s: SndUna %d passed SndNxt %d", name, snd.SndUna(), snd.SndNxt())
			}
			if snd.Cwnd() < 1 {
				t.Fatalf("%s: cwnd below one segment: %g", name, snd.Cwnd())
			}
			if snd.SndUna() > sentBytes {
				t.Fatalf("%s: acked %d > sent %d", name, snd.SndUna(), sentBytes)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSinkNeverRegresses feeds random segments and checks the
// cumulative ACK point is monotone and bounded by the bytes received.
func TestQuickSinkNeverRegresses(t *testing.T) {
	f := func(seed int64, sackOn bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		var acks []*packet.Packet
		k := NewSink(s, func(p *packet.Packet) { acks = append(acks, p) },
			SinkConfig{FlowID: 1, Peer: 0, SACKEnabled: sackOn})

		prev := int64(0)
		for i := 0; i < 200; i++ {
			seq := rng.Int63n(40) * 1000
			k.Recv(&packet.Packet{
				Kind: packet.KindData,
				Size: 1000 + packet.IPHeaderSize + packet.TCPHeaderSize,
				TCP:  &packet.TCPHeader{FlowID: 1, Seq: seq},
			})
			if k.Delivered() < prev {
				return false
			}
			prev = k.Delivered()
		}
		// Every generated ACK must be cumulative and nondecreasing.
		last := int64(0)
		for _, a := range acks {
			if a.TCP.Ack < last {
				return false
			}
			last = a.TCP.Ack
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
