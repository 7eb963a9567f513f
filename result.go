package muzha

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"muzha/internal/canon"
	"muzha/internal/stats"
)

// Sample is one point of a result time series.
type Sample struct {
	At    time.Duration
	Value float64
}

// FlowResult carries one flow's transport metrics.
type FlowResult struct {
	ID      int
	Variant Variant
	Src     int
	Dst     int

	// ThroughputBps is average goodput in bit/s from flow start to the
	// end of the run.
	ThroughputBps float64
	// BytesAcked is the cumulatively acknowledged payload.
	BytesAcked int64
	// SegmentsSent counts data segments put on the wire, including
	// retransmissions.
	SegmentsSent uint64
	// Retransmissions counts retransmitted data segments — the paper's
	// Figures 5.11-5.13 metric.
	Retransmissions uint64
	// Timeouts counts RTO expirations.
	Timeouts uint64
	// FastRecoveries counts dup-ACK-triggered recovery episodes.
	FastRecoveries uint64
	// Finished reports whether a bounded (MaxBytes) flow completed.
	Finished bool

	// CwndTrace is the congestion-window time series (segments), when
	// Config.TraceCwnd was set.
	CwndTrace []Sample
	// ThroughputSeries is binned goodput in bit/s, when
	// Config.ThroughputBin was set.
	ThroughputSeries []Sample
}

// BackgroundResult carries one CBR stream's delivery metrics.
type BackgroundResult struct {
	Src, Dst int
	// Sent and Received count datagrams.
	Sent, Received uint64
	// DeliveryRatio is Received/Sent (0 when nothing was sent).
	DeliveryRatio float64
	// MeanDelay is the average one-way datagram delay.
	MeanDelay time.Duration
}

// NodeResult carries one node's network- and MAC-layer counters.
type NodeResult struct {
	ID           int
	Forwarded    uint64 // data packets relayed for other nodes
	QueueDrops   uint64 // IFQ overflow drops
	Marked       uint64 // packets congestion-marked here
	MACRetries   uint64 // MAC retry attempts
	MACDrops     uint64 // frames dropped at MAC retry limit
	LinkFailures uint64 // link failures reported to AODV
	RERRSent     uint64
	Discoveries  uint64
}

// InvariantResult is one run-time assertion's outcome. Always
// assertions must show zero violations on a healthy run; Sometimes
// assertions report coverage (Checks > 0 means the state was reached).
type InvariantResult struct {
	Name string
	Kind string // "always" or "sometimes"
	// Checks counts evaluations (Always) or reaches (Sometimes).
	Checks uint64
	// Violations counts failed Always evaluations.
	Violations uint64
	// Details holds up to a few rendered violation messages, stamped
	// with the virtual time they occurred at.
	Details []string
}

// FaultStats counts the fault transitions injected during the run.
type FaultStats struct {
	Crashes     uint64
	Reboots     uint64
	Blackouts   uint64
	Restores    uint64
	Partitions  uint64
	Heals       uint64
	BurstPhases uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	Flows []FlowResult
	// Background holds one entry per configured CBR stream.
	Background []BackgroundResult
	Nodes      []NodeResult
	// JainIndex is Jain's fairness index over flow throughputs
	// (Figure 5.14's formula).
	JainIndex float64
	// Duration is the simulated time.
	Duration time.Duration
	// Events is the number of simulator events executed (diagnostics).
	Events uint64

	// Invariants holds every run-time assertion's outcome, in
	// registration order.
	Invariants []InvariantResult
	// InvariantViolations totals the Always violations across the run;
	// zero on a healthy run.
	InvariantViolations uint64
	// Faults counts the injected fault transitions.
	Faults FaultStats
}

// AggregateThroughputBps sums all flow throughputs.
func (r *Result) AggregateThroughputBps() float64 {
	var total float64
	for _, f := range r.Flows {
		total += f.ThroughputBps
	}
	return total
}

// finiteOr0 maps NaN and ±Inf to 0. Run builds every other value of a
// Result finite; a cwnd sample is the one that can carry NaN or ±Inf
// (a NaN window also trips tcp-cwnd). Zeroing it where the Result is
// built keeps every Result encodable, since canon.JSON and
// encoding/json both reject a non-finite float.
func finiteOr0(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// EncodeResult renders a Result in its canonical form, canonical JSON
// (sorted keys); it never changes r. Every producer of stored or
// served results — the result store sweeps and muzhad share, muzhad's
// responses, muzhasim -out — uses this one encoder, which is what makes
// "cached result" and "fresh result" byte-comparable. A Result from Run
// always encodes; one with a non-finite float does not.
func EncodeResult(r *Result) (json.RawMessage, error) {
	return canon.JSON(r)
}

// SometimesCoverage returns the sorted names of the Sometimes
// assertions this run reached — the per-run coverage signal the
// coverage-guided chaos loop steers by. It works on any Result,
// including ones decoded from the result store sweeps and muzhad share.
func (r *Result) SometimesCoverage() []string {
	var out []string
	for _, iv := range r.Invariants {
		if iv.Kind == "sometimes" && iv.Checks > 0 {
			out = append(out, iv.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TotalRetransmissions sums retransmissions over all flows.
func (r *Result) TotalRetransmissions() uint64 {
	var total uint64
	for _, f := range r.Flows {
		total += f.Retransmissions
	}
	return total
}

// String renders a compact human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %v, %d flows, Jain index %.3f\n", r.Duration, len(r.Flows), r.JainIndex)
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "  flow %d %s %d->%d: %.0f bit/s, %d rexmit, %d timeouts\n",
			f.ID, f.Variant, f.Src, f.Dst, f.ThroughputBps, f.Retransmissions, f.Timeouts)
	}
	if r.InvariantViolations > 0 {
		fmt.Fprintf(&b, "  INVARIANT VIOLATIONS: %d\n", r.InvariantViolations)
		for _, iv := range r.Invariants {
			for _, d := range iv.Details {
				fmt.Fprintf(&b, "    %s: %s\n", iv.Name, d)
			}
		}
	}
	return b.String()
}

// InvariantReport renders every assertion outcome, one per line.
func (r *Result) InvariantReport() string {
	var b strings.Builder
	for _, iv := range r.Invariants {
		status := "ok"
		if iv.Kind == "sometimes" {
			status = "unreached"
			if iv.Checks > 0 {
				status = "reached"
			}
		} else if iv.Violations > 0 {
			status = fmt.Sprintf("VIOLATED x%d", iv.Violations)
		}
		fmt.Fprintf(&b, "%-22s %-9s checks=%-8d %s\n", iv.Name, iv.Kind, iv.Checks, status)
		for _, d := range iv.Details {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	return b.String()
}

func flowResult(id int, f Flow, fl *stats.Flow, finished bool) FlowResult {
	out := FlowResult{
		ID:              id,
		Variant:         f.variant(),
		Src:             f.Src,
		Dst:             f.Dst,
		ThroughputBps:   fl.Throughput(),
		BytesAcked:      fl.BytesAcked,
		SegmentsSent:    fl.SegmentsSent,
		Retransmissions: fl.Retransmissions,
		Timeouts:        fl.Timeouts,
		FastRecoveries:  fl.FastRecoveries,
		Finished:        finished,
	}
	for _, s := range fl.CwndTrace() {
		out.CwndTrace = append(out.CwndTrace, Sample{At: s.T.Duration(), Value: finiteOr0(s.V)})
	}
	for _, s := range fl.ThroughputSeries() {
		out.ThroughputSeries = append(out.ThroughputSeries, Sample{At: s.T.Duration(), Value: s.V})
	}
	return out
}
