// Package core implements TCP Muzha, the paper's primary contribution:
// the router-side Data Rate Adjustment Index (DRAI) policy with
// congestion marking (this file), and the Muzha sender's MRAI-driven
// multi-level congestion control (muzha.go).
package core

import "fmt"

// DRAI levels, Table 5.2 of the paper. Higher is more permissive.
const (
	DRAIAggressiveDecel = 1 // CWND = CWND * 1/2
	DRAIModerateDecel   = 2 // CWND = CWND - 1
	DRAIStabilize       = 3 // CWND unchanged
	DRAIModerateAccel   = 4 // CWND = CWND + 1
	DRAIAggressiveAccel = 5 // CWND = CWND * 2
)

// ApplyDRAI returns the congestion window that results from following a
// rate adjustment recommendation, per Table 5.2. The window never drops
// below one segment. Unknown levels leave the window unchanged (treat as
// "stabilize").
func ApplyDRAI(cwnd float64, level int) float64 {
	switch level {
	case DRAIAggressiveAccel:
		cwnd *= 2
	case DRAIModerateAccel:
		cwnd++
	case DRAIStabilize:
		// unchanged
	case DRAIModerateDecel:
		cwnd--
	case DRAIAggressiveDecel:
		cwnd /= 2
	}
	if cwnd < 1 {
		cwnd = 1
	}
	return cwnd
}

// DRAIPolicy quantizes a router's interface-queue occupancy into a DRAI
// level and decides when to congestion-mark packets (Section 4.5-4.7).
//
// The thesis gives only the five action levels and notes the mapping from
// router state to level is empirical; this implementation derives it from
// IFQ occupancy with configurable thresholds, the router-local congestion
// signal the thesis names. Fewer-level policies (ECN-like binary, or
// 3-level) are provided for the ablation benches.
type DRAIPolicy struct {
	// Thresholds are ascending occupancy fractions in (0,1]; occupancy
	// below Thresholds[i] maps to Levels[i], and occupancy at or above
	// the last threshold maps to Levels[len(Thresholds)].
	Thresholds []float64
	// Levels has len(Thresholds)+1 entries, strictly descending, each in
	// [1,5].
	Levels []int
	// MarkLevel: packets are congestion-marked when the router's current
	// DRAI is at or below this level (deceleration recommendations
	// signal congestion; Section 4.7 pairs marks with deceleration).
	MarkLevel int
	// ChannelThresholds quantize the node's MAC channel utilization
	// (busy fraction of the medium, the 802.11 "available bandwidth"
	// signal of Section 4.3) against the same Levels. The effective DRAI
	// is the minimum of the queue-based and channel-based levels. Empty
	// disables the channel input.
	ChannelThresholds []float64
	// DelayThresholds quantize the node's smoothed IFQ sojourn time in
	// seconds ("queueing time", the input the thesis' future-work
	// section proposes) against the same Levels. Empty disables the
	// delay input.
	DelayThresholds []float64
}

// DefaultDRAIPolicy returns the five-level quantizer used for the
// headline experiments: aggressive acceleration while the queue is nearly
// empty, graduated braking as it fills, marking once deceleration
// territory is reached.
//
// The queue input is the node's *smoothed* (EWMA) queue length, because
// instantaneous IFQ depth is bursty; over 802.11 multihop chains a relay
// driven just past the path capacity averages 1-2 queued packets while a
// well-paced flow averages well under one. With the paper's 50-packet
// IFQ the queue breakpoints fall at 0.5, 1, 2 and 8 packets — the last
// deliberately high so aggressive deceleration (halving every RTT) is
// reserved for genuine buildup; between 2 and 8 queued packets the
// moderate -1/RTT response keeps a Muzha flow AIMD-comparable to a
// competing loss-probing flow instead of being starved by it.
//
// The default policy uses the queue signal only: a backlogged multihop
// flow saturates the medium at any window, so channel utilization cannot
// separate "well paced" from "overdriven" (see ChannelAwareDRAIPolicy for
// the gated variant the ablation benches compare against).
func DefaultDRAIPolicy() DRAIPolicy {
	return DRAIPolicy{
		Thresholds: []float64{0.01, 0.02, 0.04, 0.16},
		Levels:     []int{5, 4, 3, 2, 1},
		MarkLevel:  DRAIModerateDecel,
	}
}

// DelayAwareDRAIPolicy adds the queueing-delay input the thesis'
// future-work section proposes: the smoothed time packets spend in this
// node's IFQ, quantized with breakpoints at 5, 12, 30 and 100 ms (one
// 1500-byte frame takes ~6 ms on the air at 2 Mbps, so these correspond
// to roughly 1, 2, 5 and 16 queued frames' worth of waiting).
func DelayAwareDRAIPolicy() DRAIPolicy {
	p := DefaultDRAIPolicy()
	p.DelayThresholds = []float64{0.005, 0.012, 0.030, 0.100}
	return p
}

// ChannelAwareDRAIPolicy adds the MAC channel-utilization gate to the
// default policy: no acceleration grants once the medium is busy more
// than 85%% of the time, deceleration at pathological saturation. More
// conservative than the default — it stops a solo flow short of the
// optimum — and kept as an ablation comparison.
func ChannelAwareDRAIPolicy() DRAIPolicy {
	p := DefaultDRAIPolicy()
	p.ChannelThresholds = []float64{0.60, 0.85, 0.98, 0.99}
	return p
}

// BinaryDRAIPolicy returns an ECN-like two-level policy (the "extreme
// case of multi-level DRAI" of Section 4.6): full speed below the
// threshold, aggressive deceleration above.
func BinaryDRAIPolicy(threshold float64) DRAIPolicy {
	return DRAIPolicy{
		Thresholds: []float64{threshold},
		Levels:     []int{DRAIAggressiveAccel, DRAIAggressiveDecel},
		MarkLevel:  DRAIAggressiveDecel,
	}
}

// ThreeLevelDRAIPolicy returns a coarse accelerate/hold/decelerate
// policy for the quantization-depth ablation.
func ThreeLevelDRAIPolicy() DRAIPolicy {
	return DRAIPolicy{
		Thresholds: []float64{0.25, 0.70},
		Levels:     []int{DRAIModerateAccel, DRAIStabilize, DRAIModerateDecel},
		MarkLevel:  DRAIModerateDecel,
	}
}

// Validate reports structural errors in the policy.
func (p DRAIPolicy) Validate() error {
	if len(p.Levels) != len(p.Thresholds)+1 {
		return fmt.Errorf("core: need len(Levels) == len(Thresholds)+1, got %d and %d",
			len(p.Levels), len(p.Thresholds))
	}
	prev := 0.0
	for _, th := range p.Thresholds {
		if th <= prev || th > 1 {
			return fmt.Errorf("core: thresholds must be ascending in (0,1], got %v", p.Thresholds)
		}
		prev = th
	}
	for i, l := range p.Levels {
		if l < DRAIAggressiveDecel || l > DRAIAggressiveAccel {
			return fmt.Errorf("core: level %d out of range [1,5]", l)
		}
		if i > 0 && p.Levels[i] >= p.Levels[i-1] {
			return fmt.Errorf("core: levels must be strictly descending, got %v", p.Levels)
		}
	}
	if p.MarkLevel < 0 || p.MarkLevel > DRAIAggressiveAccel {
		return fmt.Errorf("core: MarkLevel %d out of range", p.MarkLevel)
	}
	if len(p.ChannelThresholds) > 0 {
		if len(p.ChannelThresholds) != len(p.Thresholds) {
			return fmt.Errorf("core: ChannelThresholds must match Thresholds length, got %d and %d",
				len(p.ChannelThresholds), len(p.Thresholds))
		}
		prev := 0.0
		for _, th := range p.ChannelThresholds {
			if th <= prev || th > 1 {
				return fmt.Errorf("core: channel thresholds must be ascending in (0,1], got %v", p.ChannelThresholds)
			}
			prev = th
		}
	}
	if len(p.DelayThresholds) > 0 {
		if len(p.DelayThresholds) != len(p.Thresholds) {
			return fmt.Errorf("core: DelayThresholds must match Thresholds length, got %d and %d",
				len(p.DelayThresholds), len(p.Thresholds))
		}
		prev := 0.0
		for _, th := range p.DelayThresholds {
			if th <= prev {
				return fmt.Errorf("core: delay thresholds must be ascending and positive, got %v", p.DelayThresholds)
			}
			prev = th
		}
	}
	return nil
}

// DRAI returns the rate adjustment recommendation for a queue holding
// qlen of qcap packets.
func (p DRAIPolicy) DRAI(qlen, qcap int) int {
	if qcap <= 0 {
		return DRAIStabilize
	}
	return p.Quantize(float64(qlen) / float64(qcap))
}

// Quantize maps a (possibly smoothed) queue occupancy fraction to a DRAI
// level.
func (p DRAIPolicy) Quantize(occupancy float64) int {
	for i, th := range p.Thresholds {
		if occupancy < th {
			return p.Levels[i]
		}
	}
	return p.Levels[len(p.Levels)-1]
}

// DRAIChannel returns the rate adjustment recommendation for a node whose
// medium is busy the given fraction of time. Returns the most permissive
// level when the channel input is disabled.
func (p DRAIPolicy) DRAIChannel(util float64) int {
	if len(p.ChannelThresholds) == 0 {
		return p.Levels[0]
	}
	for i, th := range p.ChannelThresholds {
		if util < th {
			return p.Levels[i]
		}
	}
	return p.Levels[len(p.Levels)-1]
}

// DRAIDelay returns the recommendation for a smoothed IFQ sojourn time
// in seconds. Returns the most permissive level when the delay input is
// disabled.
func (p DRAIPolicy) DRAIDelay(delaySeconds float64) int {
	if len(p.DelayThresholds) == 0 {
		return p.Levels[0]
	}
	for i, th := range p.DelayThresholds {
		if delaySeconds < th {
			return p.Levels[i]
		}
	}
	return p.Levels[len(p.Levels)-1]
}

// Combined returns the effective DRAI: the strictest (minimum) of the
// queue-, channel- and delay-based recommendations. occupancy is the
// smoothed queue fraction, util the MAC busy fraction, delaySeconds the
// smoothed IFQ sojourn.
func (p DRAIPolicy) Combined(occupancy, util, delaySeconds float64) int {
	d := p.Quantize(occupancy)
	if c := p.DRAIChannel(util); c < d {
		d = c
	}
	if c := p.DRAIDelay(delaySeconds); c < d {
		d = c
	}
	return d
}

// ShouldMark reports whether a router in the given state must set the
// congestion mark on forwarded packets.
func (p DRAIPolicy) ShouldMark(occupancy, util, delaySeconds float64) bool {
	return p.Combined(occupancy, util, delaySeconds) <= p.MarkLevel
}
