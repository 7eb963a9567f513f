package muzha

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"muzha/internal/canon"
	"muzha/internal/stats"
)

// islandsConfig builds a multi-domain scenario (2 islands, 2 flows
// each) small enough for a unit test but structured like the 1000-node
// runs: more flows than TraceFlowLimit allows, split across domains.
func islandsConfig(t *testing.T, traceFlowLimit int) Config {
	t.Helper()
	top, err := GridIslandsFlowsTopology(2, 2, 2, 1500, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	for _, fe := range top.FlowEndpoints() {
		cfg.Flows = append(cfg.Flows, Flow{Src: fe[0], Dst: fe[1], Variant: Muzha})
	}
	cfg.TraceCwnd = true
	cfg.ThroughputBin = 100 * time.Millisecond
	cfg.TraceFlowLimit = traceFlowLimit
	return cfg
}

func TestSummaryTracesAboveFlowLimit(t *testing.T) {
	cfg := islandsConfig(t, 2) // 4 flows > limit 2 -> summary-only
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 4 {
		t.Fatalf("got %d flows, want 4", len(res.Flows))
	}
	throughputs := make([]float64, len(res.Flows))
	for i, f := range res.Flows {
		if f.CwndTrace != nil || f.ThroughputSeries != nil {
			t.Fatalf("flow %d kept traces in summary-only mode", f.ID)
		}
		if f.BytesAcked <= 0 {
			t.Fatalf("flow %d acked nothing; scalar metrics must survive", f.ID)
		}
		throughputs[i] = f.ThroughputBps
	}
	// The Jain recompute over the summary rows must match the engine's.
	if want := stats.JainIndex(throughputs); math.Abs(res.JainIndex-want) > 1e-12 {
		t.Fatalf("JainIndex = %v, recompute from summary rows = %v", res.JainIndex, want)
	}
}

func TestSummaryDecisionIsGlobalAcrossDomains(t *testing.T) {
	// Each island carries 2 flows — exactly the limit — so a per-domain
	// decision would wrongly keep traces in every sub-run. The global
	// count (4 > 2) must win at every width.
	cfg := islandsConfig(t, 2)
	cfg.Workers = 1
	w1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	w2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range w2.Flows {
		if f.CwndTrace != nil || f.ThroughputSeries != nil {
			t.Fatalf("flow %d kept traces; summary decision must be global", f.ID)
		}
		if f.BytesAcked != w1.Flows[i].BytesAcked {
			t.Fatalf("flow %d: width-2 BytesAcked %d != width-1 %d",
				f.ID, f.BytesAcked, w1.Flows[i].BytesAcked)
		}
	}
	if w2.JainIndex != w1.JainIndex {
		t.Fatalf("JainIndex: width 2 %v != width 1 %v", w2.JainIndex, w1.JainIndex)
	}
}

func TestUnlimitedTraceFlowLimitKeepsSeries(t *testing.T) {
	cfg := islandsConfig(t, -1) // negative = unlimited
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if len(f.ThroughputSeries) == 0 {
			t.Fatalf("flow %d lost its throughput series with unlimited limit", f.ID)
		}
		if len(f.CwndTrace) == 0 {
			t.Fatalf("flow %d lost its cwnd trace with unlimited limit", f.ID)
		}
	}
}

func TestSummaryResultCanonRoundTrip(t *testing.T) {
	cfg := islandsConfig(t, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Sanitize()
	first, err := canon.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := canon.JSON(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("summary-only Result did not round-trip through canon:\n%s\nvs\n%s", first, second)
	}
}
