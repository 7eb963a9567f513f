package stats

import (
	"math"
	"testing"
	"testing/quick"

	"muzha/internal/sim"
)

func TestThroughput(t *testing.T) {
	f := NewFlow(1, "newreno", 0)
	f.Start = 0
	f.End = 10 * sim.Second
	f.AddAcked(sim.Second, 125_000) // 1 Mbit over 10 s => 100 kbit/s
	if got := f.Throughput(); math.Abs(got-100_000) > 1e-6 {
		t.Fatalf("Throughput = %g, want 100000", got)
	}
}

func TestThroughputEmptyInterval(t *testing.T) {
	f := NewFlow(1, "x", 0)
	f.AddAcked(0, 1000)
	if f.Throughput() != 0 {
		t.Fatal("zero-length interval should yield zero throughput")
	}
}

func TestBinnedSeries(t *testing.T) {
	f := NewFlow(1, "muzha", sim.Second)
	f.AddAcked(100*sim.Millisecond, 1250)  // bin 0: 10 kbit/s
	f.AddAcked(900*sim.Millisecond, 1250)  // bin 0 again: 20 kbit/s
	f.AddAcked(2500*sim.Millisecond, 2500) // bin 2: 20 kbit/s

	s := f.ThroughputSeries()
	if len(s) != 3 {
		t.Fatalf("series length = %d, want 3", len(s))
	}
	if math.Abs(s[0].V-20_000) > 1e-9 {
		t.Fatalf("bin 0 = %g, want 20000", s[0].V)
	}
	if s[1].V != 0 {
		t.Fatalf("bin 1 = %g, want 0", s[1].V)
	}
	if math.Abs(s[2].V-20_000) > 1e-9 {
		t.Fatalf("bin 2 = %g, want 20000", s[2].V)
	}
	if s[2].T != 2*sim.Second {
		t.Fatalf("bin 2 timestamp = %v", s[2].T)
	}
}

func TestBinningDisabled(t *testing.T) {
	f := NewFlow(1, "x", 0)
	f.AddAcked(sim.Second, 1000)
	if f.ThroughputSeries() != nil {
		t.Fatal("series should be nil when binning disabled")
	}
}

func TestCwndTraceCopies(t *testing.T) {
	f := NewFlow(1, "x", 0)
	f.RecordCwnd(sim.Second, 4)
	f.RecordCwnd(2*sim.Second, 8)
	trace := f.CwndTrace()
	if len(trace) != 2 || trace[1].V != 8 {
		t.Fatalf("trace = %+v", trace)
	}
	trace[0].V = 999
	if f.CwndTrace()[0].V != 4 {
		t.Fatal("CwndTrace exposed internal slice")
	}
}

func TestJainIndexKnownValues(t *testing.T) {
	tests := []struct {
		give []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{2, 2}, 1},
		{[]float64{}, 0},
		{[]float64{0, 0}, 0},
	}
	for _, tt := range tests {
		if got := JainIndex(tt.give); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %g, want %g", tt.give, got, tt.want)
		}
	}
}

// Property: Jain's index always lies in [1/n, 1] for non-degenerate
// inputs, and is scale-invariant.
func TestQuickJainIndexBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		nonzero := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				nonzero = true
			}
		}
		idx := JainIndex(xs)
		if !nonzero {
			return idx == 0
		}
		n := float64(len(xs))
		if idx < 1/n-1e-12 || idx > 1+1e-12 {
			return false
		}
		// Scale invariance.
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 7.5
		}
		return math.Abs(JainIndex(scaled)-idx) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinDecimationPreservesByteTotal(t *testing.T) {
	f := NewFlow(1, "muzha", 100*sim.Millisecond)
	f.binCap, f.cwndCap = 32, 32
	var want int64
	// Far more acks than the cap can hold at the initial resolution.
	for i := 0; i < 1000; i++ {
		f.AddAcked(sim.Time(i)*100*sim.Millisecond, 1460)
		want += 1460
	}
	if len(f.bins) > 32 {
		t.Fatalf("bins = %d, cap 32 exceeded", len(f.bins))
	}
	var got int64
	for _, s := range f.ThroughputSeries() {
		got += int64(s.V * f.BinSize().Seconds() / 8)
	}
	if got != want {
		t.Fatalf("byte total after decimation = %d, want %d", got, want)
	}
	if f.BytesAcked != want {
		t.Fatalf("BytesAcked = %d, want %d", f.BytesAcked, want)
	}
}

func TestBinDecimationMonotoneCumulative(t *testing.T) {
	// The cumulative byte count at each decimated bin edge must equal
	// the true cumulative count at that time: merging adjacent pairs
	// shifts no bytes across the pair boundary.
	f := NewFlow(1, "muzha", sim.Second)
	f.binCap, f.cwndCap = 8, 8
	truth := make(map[sim.Time]int64) // cumulative bytes by time
	var cum int64
	for i := 0; i < 64; i++ {
		b := int64(100 * (i%7 + 1))
		cum += b
		f.AddAcked(sim.Time(i)*sim.Second, b)
		truth[sim.Time(i+1)*sim.Second] = cum
	}
	prev := -1.0
	var run int64
	for i := range f.bins {
		run += f.bins[i]
		edge := sim.Time(i+1) * f.binSize
		if want, ok := truth[edge]; ok && run != want {
			t.Fatalf("cumulative at %v = %d, want %d", edge, run, want)
		}
		if float64(run) < prev {
			t.Fatalf("cumulative bytes decreased at bin %d", i)
		}
		prev = float64(run)
	}
}

func TestSparseTailDoesNotBlowUpBins(t *testing.T) {
	// A single late ack after a long quiet spell must not allocate an
	// O(duration) tail of zero bins.
	f := NewFlow(1, "muzha", 100*sim.Millisecond)
	f.AddAcked(0, 1460)
	f.AddAcked(100_000*sim.Second, 1460) // bin index 10^6 at initial width
	if len(f.bins) > DefaultBinCap {
		t.Fatalf("sparse tail grew bins to %d, cap %d", len(f.bins), DefaultBinCap)
	}
	if f.BytesAcked != 2920 {
		t.Fatalf("BytesAcked = %d", f.BytesAcked)
	}
}

func TestCwndDecimationPreservesEndpoints(t *testing.T) {
	f := NewFlow(1, "muzha", 0)
	f.binCap, f.cwndCap = 16, 16
	n := 10_000
	for i := 0; i < n; i++ {
		f.RecordCwnd(sim.Time(i)*sim.Millisecond, float64(i))
	}
	tr := f.CwndTrace()
	if len(tr) > 17 { // cap + the retained endpoint
		t.Fatalf("trace = %d samples, cap 16 exceeded", len(tr))
	}
	if tr[0].T != 0 || tr[0].V != 0 {
		t.Fatalf("first sample = %+v, want the original first", tr[0])
	}
	last := tr[len(tr)-1]
	if last.T != sim.Time(n-1)*sim.Millisecond || last.V != float64(n-1) {
		t.Fatalf("last sample = %+v, want the original last", last)
	}
	// Strictly increasing timestamps (decimation must not reorder).
	for i := 1; i < len(tr); i++ {
		if tr[i].T <= tr[i-1].T {
			t.Fatalf("trace not strictly increasing at %d: %+v", i, tr[i-1:i+1])
		}
	}
}

// A 10x longer run must not grow per-flow series memory 10x: both
// recorders are O(cap).
func TestFlowMemoryIsOCap(t *testing.T) {
	record := func(dur int) (bins, cwnd int) {
		f := NewFlow(1, "muzha", 100*sim.Millisecond)
		for i := 0; i < dur; i++ {
			t := sim.Time(i) * 100 * sim.Millisecond
			f.AddAcked(t, 1460)
			f.RecordCwnd(t, float64(i%40))
		}
		return len(f.bins), len(f.cwnd)
	}
	b1, c1 := record(100_000)
	b10, c10 := record(1_000_000)
	if b10 > DefaultBinCap || c10 > DefaultCwndCap {
		t.Fatalf("caps exceeded: bins=%d cwnd=%d", b10, c10)
	}
	if b10 > 2*b1 || c10 > 2*c1 {
		t.Fatalf("10x duration grew series superlinearly: bins %d->%d cwnd %d->%d", b1, b10, c1, c10)
	}
}

func TestFlowString(t *testing.T) {
	f := NewFlow(3, "vegas", 0)
	f.Retransmissions = 2
	f.Timeouts = 1
	got := f.String()
	want := "flow 3 (vegas): 0 bit/s, 2 rexmit, 1 timeouts"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
