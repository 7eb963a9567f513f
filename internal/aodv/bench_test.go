package aodv

import (
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// countOut is an Output that only counts, so the benchmark measures the
// router and not a recorder.
type countOut struct{ routing int }

func (o *countOut) SendRouting(*packet.Packet, packet.NodeID) { o.routing++ }
func (o *countOut) ForwardData(*packet.Packet, packet.NodeID) {}
func (o *countOut) DropData(*packet.Packet, string)           {}

// BenchmarkRREQHandling measures one relay's share of a route-request
// flood: per op, a fresh RREQ from one of 64 originators arrives, takes
// the duplicate check of internal/ondemand, refreshes the reverse route
// and is rebroadcast after ondemand's jitter; a second copy from another
// neighbour is then suppressed as a duplicate. The simulator drains the
// rebroadcast every op. The three allocations per op are the forwarded
// RREQ, the rebroadcast's scheduled closure and its packet.
func BenchmarkRREQHandling(b *testing.B) {
	s := sim.New(1)
	out := &countOut{}
	r, err := New(s, 0, out, new(packet.IDGen), ondemand.DefaultConfig(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var ids [64]uint32
	var req RREQ
	pkts := [2]packet.Packet{{MACSrc: 1, Payload: &req}, {MACSrc: 2, Payload: &req}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ids)
		ids[k]++
		req = RREQ{ID: ids[k], Src: packet.NodeID(3 + k), SrcSeq: ids[k], Dst: 999, HopCount: 2}
		for j := range pkts {
			r.HandleRouting(&pkts[j])
		}
		s.RunAll()
	}
	if out.routing != b.N {
		b.Fatalf("%d rebroadcasts for %d requests", out.routing, b.N)
	}
}
