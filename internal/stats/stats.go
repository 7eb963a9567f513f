// Package stats collects the paper's evaluation metrics: per-flow
// throughput, retransmission counts, congestion-window traces (Figures
// 5.2-5.7), binned throughput dynamics (Figures 5.19-5.22) and Jain's
// fairness index (Figure 5.14).
//
// Both per-flow time series (throughput bins and the cwnd trace) are
// capped, decimating recorders: when a series reaches its cap the
// recorder halves its resolution in place and keeps going, so per-flow
// memory is O(cap) regardless of run duration. The default caps are
// generous enough that paper-scale runs (tens of seconds, 100 ms bins)
// never decimate and record exactly what they always did.
package stats

import (
	"fmt"

	"muzha/internal/sim"
)

// Series caps. Decimation halves resolution, so a run 2^k times longer
// than the cap horizon still yields cap samples at 2^k the granularity.
const (
	DefaultBinCap  = 4096
	DefaultCwndCap = 16384
)

// Sample is one point of a time series.
type Sample struct {
	T sim.Time
	V float64
}

// Flow accumulates per-flow transport metrics. Senders update it
// directly; it performs no locking (single-threaded simulation).
type Flow struct {
	ID      int
	Variant string

	Start sim.Time // when the flow began sending
	End   sim.Time // measurement horizon (set when the run finishes)

	SegmentsSent    uint64 // data segments put on the wire, incl. rexmits
	Retransmissions uint64 // retransmitted data segments
	Timeouts        uint64 // RTO expirations
	FastRecoveries  uint64 // dup-ACK-triggered recoveries
	BytesAcked      int64  // cumulatively acknowledged payload bytes

	binSize sim.Time
	binCap  int     // DefaultBinCap; at least 2 so decimation makes progress
	bins    []int64 // bytes newly acked per interval, for dynamics plots

	cwndCap    int  // DefaultCwndCap
	cwndOff    bool // drop cwnd samples entirely (cwnd tracing off)
	cwndStride int  // record every stride-th sample; doubles on decimation
	cwndSkip   int  // samples to skip before the next recorded one
	cwndLast   Sample
	cwndSeen   bool
	cwnd       []Sample // congestion window trace
}

// NewFlow creates a flow recorder. binSize controls the resolution of the
// throughput-dynamics series; zero disables binning.
func NewFlow(id int, variant string, binSize sim.Time) *Flow {
	return &Flow{ID: id, Variant: variant, binSize: binSize,
		binCap: DefaultBinCap, cwndCap: DefaultCwndCap}
}

// DisableCwnd stops the recorder from retaining congestion-window
// samples: RecordCwnd becomes a no-op and CwndTrace returns an empty
// series. A run without Config.TraceCwnd uses it, so its flows keep no
// cwnd samples.
func (f *Flow) DisableCwnd() { f.cwndOff = true }

// AddAcked credits newly acknowledged payload bytes at virtual time t.
func (f *Flow) AddAcked(t sim.Time, bytes int64) {
	f.BytesAcked += bytes
	if f.binSize <= 0 {
		return
	}
	idx := int(t / f.binSize)
	// A late ack after a long quiet spell would otherwise allocate a
	// sparse tail of idx zero bins; decimate until the observed horizon
	// fits under the cap, merging adjacent bin pairs (byte totals are
	// preserved, bin width doubles).
	for idx >= f.binCap {
		f.decimateBins()
		idx = int(t / f.binSize)
	}
	for len(f.bins) <= idx {
		f.bins = append(f.bins, 0)
	}
	f.bins[idx] += bytes
}

// decimateBins merges adjacent bin pairs in place and doubles binSize.
// Bin i of the new series covers exactly old bins 2i and 2i+1, so the
// total byte count is unchanged.
func (f *Flow) decimateBins() {
	half := (len(f.bins) + 1) / 2
	for i := 0; i < half; i++ {
		v := f.bins[2*i]
		if 2*i+1 < len(f.bins) {
			v += f.bins[2*i+1]
		}
		f.bins[i] = v
	}
	f.bins = f.bins[:half]
	f.binSize *= 2
}

// RecordCwnd appends a congestion-window sample (in segments). Above
// the cap the recorder keeps every stride-th sample, doubling the
// stride each time the cap is hit; the most recent sample is always
// retained so CwndTrace preserves the trace endpoint exactly.
func (f *Flow) RecordCwnd(t sim.Time, cwnd float64) {
	if f.cwndOff {
		return
	}
	s := Sample{T: t, V: cwnd}
	f.cwndLast = s
	f.cwndSeen = true
	if f.cwndStride == 0 {
		f.cwndStride = 1
	}
	if f.cwndSkip > 0 {
		f.cwndSkip--
		return
	}
	f.cwnd = append(f.cwnd, s)
	f.cwndSkip = f.cwndStride - 1
	if len(f.cwnd) >= f.cwndCap {
		// Keep even indices (the first sample survives every round).
		kept := f.cwnd[:0]
		for i := 0; i < len(f.cwnd); i += 2 {
			kept = append(kept, f.cwnd[i])
		}
		f.cwnd = kept
		f.cwndStride *= 2
		f.cwndSkip = f.cwndStride - 1
	}
}

// CwndTrace returns the recorded congestion-window series. The final
// sample ever recorded is appended if decimation skipped it.
func (f *Flow) CwndTrace() []Sample {
	out := make([]Sample, len(f.cwnd), len(f.cwnd)+1)
	copy(out, f.cwnd)
	if f.cwndSeen && (len(out) == 0 || f.cwndLast.T > out[len(out)-1].T) {
		out = append(out, f.cwndLast)
	}
	return out
}

// Throughput returns the flow's average goodput in bit/s between Start
// and End. Zero if the interval is empty.
func (f *Flow) Throughput() float64 {
	d := f.End - f.Start
	if d <= 0 {
		return 0
	}
	return float64(f.BytesAcked) * 8 / d.Seconds()
}

// ThroughputSeries returns the binned goodput dynamics in bit/s. After
// decimation the samples are simply wider: T steps by the doubled bin
// size and V averages over it.
func (f *Flow) ThroughputSeries() []Sample {
	if f.binSize <= 0 {
		return nil
	}
	out := make([]Sample, len(f.bins))
	for i, b := range f.bins {
		out[i] = Sample{
			T: sim.Time(i) * f.binSize,
			V: float64(b) * 8 / f.binSize.Seconds(),
		}
	}
	return out
}

// BinSize reports the current bin width (doubled by each decimation).
func (f *Flow) BinSize() sim.Time { return f.binSize }

func (f *Flow) String() string {
	return fmt.Sprintf("flow %d (%s): %.0f bit/s, %d rexmit, %d timeouts",
		f.ID, f.Variant, f.Throughput(), f.Retransmissions, f.Timeouts)
}

// JainIndex computes Jain's fairness index (Figure 5.14):
//
//	(sum x)^2 / (n * sum x^2)
//
// It is 1 for perfectly equal allocations and 1/n when one flow takes
// everything. Empty or all-zero input yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
