package muzha

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"muzha/internal/stats"
)

// islandsConfig builds a traced multi-domain scenario (2 islands, 2
// flows each) small enough for a unit test but structured like the
// 1000-node runs: the flows split across domains.
func islandsConfig(t *testing.T) Config {
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
	return cfg
}

// TestUnlimitedTraceFlowLimitKeepsSeries: a run that asks for traces
// gets every flow's series whatever the flow count and the domain
// split; no flow limit overrides TraceCwnd or ThroughputBin.
func TestUnlimitedTraceFlowLimitKeepsSeries(t *testing.T) {
	res, err := Run(islandsConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 4 {
		t.Fatalf("got %d flows, want 4", len(res.Flows))
	}
	for _, f := range res.Flows {
		if len(f.CwndTrace) == 0 || len(f.ThroughputSeries) == 0 {
			t.Fatalf("flow %d lost a series: %d cwnd samples, %d throughput bins",
				f.ID, len(f.CwndTrace), len(f.ThroughputSeries))
		}
	}
}

// TestSummaryDecisionIsGlobalAcrossDomains: the summary metrics of a
// multi-domain run are computed over every flow, not per domain, so the
// Result is identical at widths 1 and 2 and its Jain index matches a
// recompute over all flows.
func TestSummaryDecisionIsGlobalAcrossDomains(t *testing.T) {
	cfg := islandsConfig(t)
	cfg.width = 1
	w1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.width = 2
	w2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("the Result at width 2 differs from width 1")
	}
	throughputs := make([]float64, len(w2.Flows))
	for i, f := range w2.Flows {
		if f.BytesAcked <= 0 {
			t.Fatalf("flow %d acked nothing", f.ID)
		}
		throughputs[i] = f.ThroughputBps
	}
	if want := stats.JainIndex(throughputs); math.Abs(w2.JainIndex-want) > 1e-12 {
		t.Fatalf("JainIndex = %v, recompute over all flows = %v", w2.JainIndex, want)
	}
}

// TestSummaryResultCanonRoundTrip: EncodeResult of a traced
// multi-domain Result, decoded and encoded again, reproduces its bytes.
func TestSummaryResultCanonRoundTrip(t *testing.T) {
	res, err := Run(islandsConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := EncodeResult(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("the decoded Result encodes differently:\n%s\nvs\n%s", first, second)
	}
}
