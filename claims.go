package muzha

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// This file holds the paper's claims (EXPERIMENTS.md, "Summary of
// claims") as checks on the registry's rows. Each check names the
// paper claim it tests and where, says whether the reproduction is
// expected to show it, and if not, why. muzhareport fails on any check
// whose outcome differs from its expectation, a divergence that starts
// to hold included, and the root claim tests judge their runs with the
// same checks.

// Status is a claim check's outcome.
type Status string

// The outcomes of a claim check.
const (
	Holds    Status = "holds"
	Diverges Status = "diverges"
)

// Claim is one check of a paper claim on an experiment's rows.
type Claim struct {
	// ID is the paper claim's number and where it is checked, e.g.
	// "1@16" for claim 1 at 16 hops.
	ID string
	// Text states what holds when the check passes.
	Text string
	// Expect is the outcome the reproduction shows.
	Expect Status
	// Reason says why the reproduction diverges, when Expect is
	// Diverges.
	Reason string
	// judge reports whether Text holds on rows and the numbers it read;
	// an error names a row it needs that rows lack.
	judge func(rows any) (bool, string, error)
}

// Verdict is a claim judged on measured rows.
type Verdict struct {
	Claim
	Got Status
	// Detail gives the numbers the judgement read.
	Detail string
	Err    error
}

// OK reports whether the check came out as expected.
func (v Verdict) OK() bool { return v.Err == nil && v.Got == v.Expect }

// judgeRows checks the claim on an experiment's rows.
func (c Claim) judgeRows(rows any) Verdict {
	ok, detail, err := c.judge(rows)
	v := Verdict{Claim: c, Got: Diverges, Detail: detail, Err: err}
	if ok {
		v.Got = Holds
	}
	return v
}

// registryClaims returns every claim check of the registry, by ID.
func registryClaims() map[string]Claim {
	m := make(map[string]Claim)
	for _, e := range Registry() {
		for _, c := range e.claims {
			m[c.ID] = c
		}
	}
	return m
}

// rowClaim builds a claim whose predicate reads rows of type R through
// get, which returns the first row match accepts and records a miss.
func rowClaim[R any](id string, expect Status, text, reason string, pred func(get func(desc string, match func(R) bool) R) (bool, string)) Claim {
	return Claim{ID: id, Text: text, Expect: expect, Reason: reason, judge: func(rows any) (bool, string, error) {
		rs, _ := rows.([]R)
		var miss error
		get := func(desc string, match func(R) bool) R {
			for _, r := range rs {
				if match(r) {
					return r
				}
			}
			if miss == nil {
				miss = fmt.Errorf("muzha: no %s row", desc)
			}
			var zero R
			return zero
		}
		ok, detail := pred(get)
		return ok, detail, miss
	}}
}

// chainAt finds the sweep row of (window, hops, variant).
func chainAt(get func(string, func(ChainRow) bool) ChainRow, w, h int, v Variant) ChainRow {
	return get(fmt.Sprintf("window %d, %d-hop %s", w, h, v), func(r ChainRow) bool {
		return r.Window == w && r.Hops == h && r.Variant == v && r.Seeds > 0
	})
}

// gain is a's relative advantage over b, in percent.
func gain(a, b float64) float64 { return 100 * (a/b - 1) }

// longChains is why Muzha falls below NewReno from 16 hops on.
const longChains = "the smoothed-queue DRAI targets 1–2 queued packets, and long chains need deeper pipelining; per-RTT adjustment is slow at 300 ms+ RTTs"

// beatsNewReno is claim 1 at h hops, window 8: Muzha's throughput is at
// least 5% above NewReno's, the low end of the paper's +5-10%.
func beatsNewReno(h int, expect Status, reason string) Claim {
	return rowClaim(fmt.Sprintf("1@%d", h), expect,
		fmt.Sprintf("Muzha's throughput ≥ 1.05 × NewReno's on the %d-hop chain (w=8)", h), reason,
		func(get func(string, func(ChainRow) bool) ChainRow) (bool, string) {
			m, n := chainAt(get, 8, h, Muzha), chainAt(get, 8, h, NewReno)
			return m.ThroughputBps >= 1.05*n.ThroughputBps,
				fmt.Sprintf("muzha %.0f vs newreno %.0f bit/s (%+.1f%%)", m.ThroughputBps, n.ThroughputBps, gain(m.ThroughputBps, n.ThroughputBps))
		})
}

// chainClaims are claims 1 and 3, on the throughput figures.
var chainClaims = []Claim{
	beatsNewReno(4, Holds, ""),
	beatsNewReno(8, Holds, ""),
	beatsNewReno(16, Diverges, longChains),
	beatsNewReno(24, Diverges, longChains),
	beatsNewReno(32, Diverges, longChains),
	rowClaim("3@4", Holds, "Vegas's throughput ≥ 0.95 × Muzha's on the 4-hop chain (w=8): best or near it on short paths", "",
		func(get func(string, func(ChainRow) bool) ChainRow) (bool, string) {
			v, m := chainAt(get, 8, 4, Vegas), chainAt(get, 8, 4, Muzha)
			return v.ThroughputBps >= 0.95*m.ThroughputBps,
				fmt.Sprintf("vegas %.0f vs muzha %.0f bit/s", v.ThroughputBps, m.ThroughputBps)
		}),
	rowClaim("3@16", Holds, "Vegas's throughput < 1.05 × NewReno's on the 16-hop chain (w=8): its edge is gone on long paths", "",
		func(get func(string, func(ChainRow) bool) ChainRow) (bool, string) {
			v, n := chainAt(get, 8, 16, Vegas), chainAt(get, 8, 16, NewReno)
			return v.ThroughputBps < 1.05*n.ThroughputBps,
				fmt.Sprintf("vegas %.0f vs newreno %.0f bit/s", v.ThroughputBps, n.ThroughputBps)
		}),
}

// retxClaims are claims 2 and 4, on the retransmission figures.
var retxClaims = []Claim{
	rowClaim("2@4", Holds, "Muzha retransmits less than half as much as NewReno on the 4-hop chain (w=8)", "",
		func(get func(string, func(ChainRow) bool) ChainRow) (bool, string) {
			m, n := chainAt(get, 8, 4, Muzha), chainAt(get, 8, 4, NewReno)
			return m.Retransmissions < n.Retransmissions/2,
				fmt.Sprintf("muzha %.1f vs newreno %.1f", m.Retransmissions, n.Retransmissions)
		}),
	{ID: "4", Expect: Holds, Text: "Vegas retransmits no more than NewReno or SACK in any cell of the sweep",
		judge: func(rows any) (bool, string, error) {
			rs, _ := rows.([]ChainRow)
			worst, n := 0.0, 0
			for _, v := range rs {
				for _, o := range rs {
					if v.Variant == Vegas && (o.Variant == NewReno || o.Variant == SACK) && o.Window == v.Window && o.Hops == v.Hops {
						if n++; v.Retransmissions > o.Retransmissions {
							return false, fmt.Sprintf("window %d, %d hops: vegas %.1f vs %s %.1f",
								v.Window, v.Hops, v.Retransmissions, o.Variant, o.Retransmissions), nil
						}
						worst = max(worst, v.Retransmissions)
					}
				}
			}
			if n == 0 {
				return false, "", fmt.Errorf("muzha: no vegas row beside a newreno or sack row")
			}
			return true, fmt.Sprintf("vegas at most %.1f over %d comparisons", worst, n), nil
		}},
}

// cwndStats is a trace's mean and standard deviation over its 0.5 s
// samples from 1 s to 10 s.
func cwndStats(tr []Sample) (mean, sd float64) {
	samples := SampleTrace(tr, 500*time.Millisecond, 10*time.Second)
	if len(samples) < 2 {
		return 0, 0
	}
	samples = samples[2:]
	for _, s := range samples {
		mean += s.Value
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		sd += (s.Value - mean) * (s.Value - mean)
	}
	return mean, math.Sqrt(sd / float64(len(samples)))
}

// cwndAt finds the 4-hop trace of v.
func cwndAt(get func(string, func(CwndTraceResult) bool) CwndTraceResult, v Variant) []Sample {
	return get("4-hop "+string(v)+" cwnd", func(r CwndTraceResult) bool { return r.Hops == 4 && r.Variant == v && r.Trace != nil }).Trace
}

// cwndClaims are claim 5, on the congestion-window traces.
var cwndClaims = []Claim{
	rowClaim("5@4", Holds, "on the 4-hop chain, Vegas's mean cwnd is below 6 and below NewReno's and SACK's, and Muzha's cwnd varies less than theirs (1–10 s)", "",
		func(get func(string, func(CwndTraceResult) bool) CwndTraceResult) (bool, string) {
			vm, _ := cwndStats(cwndAt(get, Vegas))
			_, msd := cwndStats(cwndAt(get, Muzha))
			nm, nsd := cwndStats(cwndAt(get, NewReno))
			sm, ssd := cwndStats(cwndAt(get, SACK))
			return vm < 6 && vm < nm && vm < sm && msd < nsd && msd < ssd,
				fmt.Sprintf("mean cwnd vegas %.1f, newreno %.1f, sack %.1f; sd muzha %.1f, newreno %.1f, sack %.1f", vm, nm, sm, msd, nsd, ssd)
		}),
}

// fairer is claim 6 at h hops: NewReno+Muzha shares more fairly than
// NewReno+Vegas, with a Jain index of at least 0.7.
func fairer(h int, expect Status, reason string) Claim {
	return rowClaim(fmt.Sprintf("6@%d", h), expect,
		fmt.Sprintf("Jain(NewReno+Muzha) > Jain(NewReno+Vegas) and ≥ 0.7 on the %d-hop cross", h), reason,
		func(get func(string, func(FairnessRow) bool) FairnessRow) (bool, string) {
			pair := func(v Variant) float64 {
				return get(fmt.Sprintf("%d-hop newreno+%s", h, v), func(r FairnessRow) bool {
					return r.Hops == h && r.Variants == [2]Variant{NewReno, v} && r.Seeds > 0
				}).JainIndex
			}
			m, v := pair(Muzha), pair(Vegas)
			return m > v && m >= 0.7, fmt.Sprintf("Jain %.3f (muzha pairing) vs %.3f (vegas pairing)", m, v)
		})
}

// fairnessClaims are claim 6, on the coexistence figures.
var fairnessClaims = []Claim{
	fairer(4, Diverges, "on the 4-hop cross one flow captures the channel in most seeds, and the Vegas pairing comes out fairer"),
	fairer(6, Holds, ""),
	fairer(8, Holds, ""),
}

// dynamicsClaims are claim 7, on the throughput dynamics.
var dynamicsClaims = []Claim{
	rowClaim("7", Holds, "three staggered Muzha flows all obtain bandwidth, and flow 1 runs slower once all three share the chain (20–30 s) than alone (2–10 s)", "",
		func(get func(string, func(DynamicsResult) bool) DynamicsResult) (bool, string) {
			dr := get("muzha dynamics", func(r DynamicsResult) bool { return r.Variant == Muzha })
			avg := func(s []Sample, from, to int) float64 {
				var sum float64
				n := 0
				for _, p := range s {
					if sec := int(p.At / time.Second); sec >= from && sec < to {
						sum += p.Value
						n++
					}
				}
				return sum / math.Max(1, float64(n))
			}
			alone, shared := avg(dr.Series[0], 2, 10), avg(dr.Series[0], 21, 30)
			f2, f3 := avg(dr.Series[1], 10, 30), avg(dr.Series[2], 20, 30)
			return f2 > 0 && f3 > 0 && shared < alone,
				fmt.Sprintf("flow 1 %.0f → %.0f kbit/s; flows 2 and 3 %.0f and %.0f kbit/s", alone/1000, shared/1000, f2/1000, f3/1000)
		}),
}

// lossArm is the mean throughput of the Section 4.7 arm labelled l.
func lossArm(get func(string, func(ArmRow) bool) ArmRow, l string) float64 {
	return get(strings.TrimSpace(l), func(r ArmRow) bool { return r.Label == l && r.Seeds > 0 }).ThroughputBps
}

// lossClaims are claim 8, on the random-loss discrimination runs.
var lossClaims = []Claim{
	rowClaim("8a", Holds, "at 2% residual loss, Muzha with loss discrimination outruns NewReno", "",
		func(get func(string, func(ArmRow) bool) ArmRow) (bool, string) {
			m, n := lossArm(get, lossMuzha), lossArm(get, lossNewReno)
			return m > n, fmt.Sprintf("muzha %.0f vs newreno %.0f bit/s", m, n)
		}),
	rowClaim("8b", Holds, "at 2% residual loss, discrimination does not cost Muzha throughput", "",
		func(get func(string, func(ArmRow) bool) ArmRow) (bool, string) {
			on, off := lossArm(get, lossMuzha), lossArm(get, lossBlind)
			return on >= off, fmt.Sprintf("on %.0f vs off %.0f bit/s (%+.1f%%)", on, off, gain(on, off))
		}),
}
