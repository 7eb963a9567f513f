package trace

import (
	"errors"
	"strings"
	"testing"

	"muzha/internal/packet"
	"muzha/internal/sim"
)

func sampleEvent() Event {
	return Event{
		T:    1234567 * sim.Microsecond,
		Node: 2,
		Op:   OpForward,
		UID:  42,
		Kind: packet.KindData,
		Src:  0,
		Dst:  4,
		Size: 1500,
		Flow: 1,
		Seq:  1460,
	}
}

func TestEventFormat(t *testing.T) {
	got := sampleEvent().Format()
	want := "f 1.234567 _2_ data 42 f1 seq=1460 n0->n4 1500B"
	if got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestEventFormatAckAndDrop(t *testing.T) {
	e := sampleEvent()
	e.Op = OpDrop
	e.Reason = "queue overflow"
	e.IsAck = true
	e.Seq = 2920
	got := e.Format()
	if !strings.Contains(got, "ack=2920") || !strings.Contains(got, "[queue overflow]") {
		t.Fatalf("Format = %q", got)
	}
	if !strings.HasPrefix(got, "d ") {
		t.Fatalf("drop prefix missing: %q", got)
	}
}

func TestEventFormatRoutingPacket(t *testing.T) {
	e := Event{
		T: sim.Second, Node: 1, Op: OpSend,
		UID: 7, Kind: packet.KindRouting, Src: 1, Dst: packet.Broadcast, Size: 44,
	}
	got := e.Format()
	want := "s 1.000000 _1_ routing 7 n1->* 44B"
	if got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpSend, "s"}, {OpRecv, "r"}, {OpForward, "f"}, {OpDrop, "d"}, {OpMark, "m"},
		{Op(99), "op(99)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d) = %q, want %q", int(tt.op), got, tt.want)
		}
	}
}

func TestFromPacket(t *testing.T) {
	pkt := &packet.Packet{
		UID: 9, Kind: packet.KindData, Src: 0, Dst: 4, Size: 1500,
		TCP: &packet.TCPHeader{FlowID: 3, Seq: 2920},
	}
	e := FromPacket(2*sim.Second, 1, OpRecv, "", pkt)
	if e.UID != 9 || e.Flow != 3 || e.Seq != 2920 || e.IsAck {
		t.Fatalf("FromPacket = %+v", e)
	}

	ack := &packet.Packet{
		UID: 10, Kind: packet.KindData, Src: 4, Dst: 0, Size: 40,
		TCP: &packet.TCPHeader{FlowID: 3, Ack: 4380, IsAck: true},
	}
	e = FromPacket(2*sim.Second, 1, OpRecv, "", ack)
	if !e.IsAck || e.Seq != 4380 {
		t.Fatalf("ack event = %+v", e)
	}
}

func TestBufferRecordAndQuery(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 5; i++ {
		e := sampleEvent()
		if i%2 == 0 {
			e.Op = OpDrop
		}
		b.Record(e)
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.Count(OpDrop); got != 3 {
		t.Fatalf("Count(drop) = %d, want 3", got)
	}
	if got := len(b.Filter(func(e Event) bool { return e.Op == OpForward })); got != 2 {
		t.Fatalf("Filter = %d, want 2", got)
	}
	// Events returns a copy.
	evs := b.Events()
	evs[0].UID = 999
	if b.Events()[0].UID == 999 {
		t.Fatal("Events leaked internal slice")
	}
}

func TestBufferLimit(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 10; i++ {
		b.Record(sampleEvent())
	}
	if b.Len() != 3 {
		t.Fatalf("limited buffer holds %d, want 3", b.Len())
	}
}

func TestTextWriter(t *testing.T) {
	var sb strings.Builder
	w := NewTextWriter(&sb)
	w.Record(sampleEvent())
	w.Record(sampleEvent())
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestTextWriterLatchesError(t *testing.T) {
	w := NewTextWriter(&failWriter{after: 1})
	w.Record(sampleEvent())
	if w.Err() != nil {
		t.Fatal("unexpected early error")
	}
	w.Record(sampleEvent())
	if w.Err() == nil {
		t.Fatal("write error not captured")
	}
	w.Record(sampleEvent()) // must not panic or overwrite the error
	if w.Err().Error() != "disk full" {
		t.Fatalf("error = %v", w.Err())
	}
}
