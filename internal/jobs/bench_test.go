package jobs

import (
	"testing"
	"time"

	"muzha"
)

// islandsResult runs one islands-scale world: 16 islands of 8x8 nodes
// with 8 Muzha flows each, expanding-ring AODV, 3 s simulated. Its
// Result, 1,024 node rows and 128 flows, encodes to about 155 KB.
func islandsResult(tb testing.TB) *muzha.Result {
	tb.Helper()
	top, err := muzha.GridIslandsFlowsTopology(16, 8, 8, 1500, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := muzha.DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 3 * time.Second
	cfg.Window = 8
	cfg.ExpandingRing = true
	cfg.Seed = 2
	for _, e := range top.FlowEndpoints() {
		cfg.Flows = append(cfg.Flows, muzha.Flow{Src: e[0], Dst: e[1], Variant: muzha.Muzha})
	}
	res, err := muzha.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkEncodeResult measures the daemon's canonical Result encoding
// on an islands-scale Result.
func BenchmarkEncodeResult(b *testing.B) {
	res := islandsResult(b)
	raw, err := EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(res); err != nil {
			b.Fatal(err)
		}
	}
}
