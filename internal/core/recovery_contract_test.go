package core

import (
	"fmt"
	"testing"

	"muzha/internal/sim"
	"muzha/internal/stats"
	"muzha/internal/tcp"
)

// recoveryState is what TestRecoveryContract pins after each step.
type recoveryState struct {
	cwnd, ssthresh float64
	retx, fastRec  uint64
}

func (r recoveryState) String() string {
	return fmt.Sprintf("{%g, %g, %d, %d}", r.cwnd, r.ssthresh, r.retx, r.fastRec)
}

// TestRecoveryContract drives every variant through one scripted loss
// episode — three duplicate ACKs, a fourth, a partial ACK, the full ACK
// of everything outstanding when recovery began, and a retransmission
// timeout — and pins cwnd, ssthresh, retransmissions and fast recoveries
// after each step. It fixes each variant's loss response, including the
// ways they differ from one another, so the shared fast-retransmit and
// recovery code must reproduce every one of them.
func TestRecoveryContract(t *testing.T) {
	steps := []string{"dup3", "dup4", "partial", "full", "timeout"}
	cases := []struct {
		name string
		v    func() tcp.Variant
		want [5]recoveryState
	}{
		{"tahoe", func() tcp.Variant { return tcp.NewTahoe() }, [5]recoveryState{
			{1, 5, 1, 1}, {1, 5, 1, 1}, {2, 5, 1, 1}, {3, 5, 1, 1}, {1, 2, 2, 1}}},
		{"reno", func() tcp.Variant { return tcp.NewReno2() }, [5]recoveryState{
			{8, 5, 1, 1}, {9, 5, 1, 1}, {5, 5, 1, 1}, {5.2, 5, 1, 1}, {1, 2.5, 2, 1}}},
		{"newreno", func() tcp.Variant { return tcp.NewNewReno() }, [5]recoveryState{
			{8, 5, 1, 1}, {9, 5, 1, 1}, {8, 5, 2, 1}, {5, 5, 2, 1}, {1, 2.5, 3, 1}}},
		{"sack", func() tcp.Variant { return tcp.NewSACK() }, [5]recoveryState{
			{5, 5, 1, 1}, {5, 5, 1, 1}, {5, 5, 1, 1}, {5, 5, 1, 1}, {1, 2.5, 2, 1}}},
		{"vegas", func() tcp.Variant { return tcp.NewVegas() }, [5]recoveryState{
			{12, 12, 1, 1}, {12, 12, 1, 1}, {12, 12, 1, 1}, {12, 12, 1, 1}, {2, 6, 2, 1}}},
		{"veno", func() tcp.Variant { return tcp.NewVeno() }, [5]recoveryState{
			{11, 8, 1, 1}, {12, 8, 1, 1}, {12, 8, 2, 1}, {8, 8, 2, 1}, {1, 4, 3, 1}}},
		{"westwood", func() tcp.Variant { return tcp.NewWestwood() }, [5]recoveryState{
			{8, 5, 1, 1}, {9, 5, 1, 1}, {9, 5, 2, 1}, {5, 5, 2, 1}, {1, 5, 3, 1}}},
		{"jersey", func() tcp.Variant { return tcp.NewJersey() }, [5]recoveryState{
			{5, 2, 1, 1}, {6, 2, 1, 1}, {6, 2, 2, 1}, {2, 2, 2, 1}, {1, 2, 3, 1}}},
		{"ecn-newreno", func() tcp.Variant { return tcp.NewECNNewReno() }, [5]recoveryState{
			{8, 5, 1, 1}, {9, 5, 1, 1}, {8, 5, 2, 1}, {5, 5, 2, 1}, {1, 2.5, 3, 1}}},
		{"cubic", func() tcp.Variant { return tcp.NewCUBIC() }, [5]recoveryState{
			{10, 7, 1, 1}, {11, 7, 1, 1}, {10, 7, 2, 1}, {7, 7, 2, 1}, {1, 4.8999999999999995, 3, 1}}},
		{"bbr-lite", func() tcp.Variant { return tcp.NewBBRLite() }, [5]recoveryState{
			{10, 32, 1, 1}, {10, 32, 1, 1}, {12, 32, 1, 1}, {17, 32, 1, 1}, {4, 32, 2, 1}}},
		{"muzha", func() tcp.Variant { return NewMuzha() }, [5]recoveryState{
			{7, 32, 1, 1}, {8, 32, 1, 1}, {8, 32, 2, 1}, {4, 32, 2, 1}, {1, 32, 3, 1}}},
		{"drai-clamped-cubic", func() tcp.Variant { return NewDRAIClamped(tcp.NewCUBIC()) }, [5]recoveryState{
			{10, 7, 1, 1}, {11, 7, 1, 1}, {10, 7, 2, 1}, {7, 7, 2, 1}, {1, 4.8999999999999995, 3, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runRecoveryScript(t, tc.v())
			for i, step := range steps {
				if got[i] != tc.want[i] {
					t.Errorf("after %s: {cwnd, ssthresh, retx, fastRec} = %v, want %v", step, got[i], tc.want[i])
				}
			}
		})
	}
}

// runRecoveryScript runs the loss episode of TestRecoveryContract on a
// fresh sender with an initial window of 8 segments and 1000-byte MSS.
func runRecoveryScript(t *testing.T, v tcp.Variant) [5]recoveryState {
	t.Helper()
	s := sim.New(1)
	w := &wire{}
	fl := stats.NewFlow(1, "contract", 0)
	snd, err := tcp.NewSender(s, w.send, tcp.SenderConfig{
		FlowID: 1, Dst: 4, MSS: 1000, AdvertisedWindow: 32, InitialCwnd: 8, Stats: fl,
	}, v)
	if err != nil {
		t.Fatal(err)
	}
	var out [5]recoveryState
	record := func(i int) {
		out[i] = recoveryState{snd.Cwnd(), snd.Ssthresh(), fl.Retransmissions, fl.FastRecoveries}
	}
	snd.Start()
	s.Run(50 * sim.Millisecond)
	// Two new ACKs 10 ms apart give RTT and rate samples, which the
	// delay- and rate-based variants need before they act.
	snd.Recv(muzhaAck(1000, 0, false, 0))
	s.Run(60 * sim.Millisecond)
	snd.Recv(muzhaAck(2000, 0, false, 0))
	una := snd.SndUna()
	// Marked duplicates: Muzha reads them as congestion loss.
	for i := 0; i < 3; i++ {
		snd.Recv(muzhaAck(una, 0, true, -1))
	}
	high := snd.SndNxt()
	record(0)
	snd.Recv(muzhaAck(una, 0, true, -1))
	record(1)
	snd.Recv(muzhaAck(una+2000, 0, false, -1))
	record(2)
	snd.Recv(muzhaAck(high, 0, false, -1))
	record(3)
	// No more ACKs: step the clock until the retransmission timer fires.
	for i := 0; fl.Timeouts == 0; i++ {
		if i == 1000 {
			t.Fatal("no retransmission timeout within 10 s")
		}
		s.Run(s.Now() + 10*sim.Millisecond)
	}
	record(4)
	return out
}
