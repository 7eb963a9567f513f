package aodv

import (
	"encoding/binary"
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// FuzzAODVMessages drives HandleRouting with arbitrary — malformed,
// truncated, self-referential — RREQ/RREP/RERR streams interleaved with
// data sends and link-failure reports. The router must never panic and
// its routing table must never name the node itself as a destination.
func FuzzAODVMessages(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := sim.New(1)
		out := &stubOut{}
		var ids packet.IDGen
		r, err := New(s, 2, out, &ids, ondemand.DefaultConfig(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}

		u32 := func(i int) uint32 {
			var b [4]byte
			if i < len(data) {
				copy(b[:], data[i:min(i+4, len(data))]) // truncated tail -> zeros
			}
			return binary.LittleEndian.Uint32(b[:])
		}
		node := func(i int) packet.NodeID {
			if i >= len(data) {
				return 0
			}
			return packet.NodeID(int(data[i]%8) - 1) // includes -1 and self (2)
		}

		for i := 0; i+1 < len(data); i += 9 {
			op := data[i]
			prev := node(i + 1)
			var payload any
			switch op % 6 {
			case 0:
				payload = &RREQ{
					ID: u32(i + 2), Src: node(i + 2), SrcSeq: u32(i + 3),
					Dst: node(i + 4), DstSeq: u32(i + 5),
					DstSeqKnown: op&0x40 != 0,
					HopCount:    int(int8(data[i+1])), // negative hop counts too
				}
			case 1:
				payload = &RREP{
					Src: node(i + 2), Dst: node(i + 3),
					DstSeq: u32(i + 4), HopCount: int(int8(data[i+1])),
				}
			case 2:
				// RERR with 0..n entries, possibly duplicated/self dsts.
				n := int(data[i+1] % 5)
				e := &RERR{}
				for j := 0; j < n; j++ {
					e.Unreachable = append(e.Unreachable,
						Unreachable{Dst: node(i + 2 + j), Seq: u32(i + 3 + j)})
				}
				payload = e
			case 3:
				payload = nil // truncated frame: payload lost entirely
			case 4:
				r.SendData(&packet.Packet{
					UID: uint64(i), Kind: packet.KindData,
					Src: 2, Dst: node(i + 2), Size: 1000,
				})
			case 5:
				r.LinkFailure(prev, nil)
			}
			if payload != nil || op%6 == 3 {
				r.HandleRouting(&packet.Packet{
					Kind: packet.KindRouting, MACSrc: prev, Payload: payload,
				})
			}
			// Let jittered rebroadcasts and discovery timers fire.
			s.Run(s.Now() + sim.Time(op)*sim.Millisecond)
		}
		s.Run(s.Now() + 10*sim.Second)

		if _, ok := nextHops(r)[2]; ok {
			t.Fatal("router installed a route to itself")
		}
	})
}
