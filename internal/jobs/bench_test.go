package jobs

import (
	"testing"
	"time"

	"muzha"
)

// islandsConfig is one islands-scale world: 16 islands of 8x8 nodes
// with 8 Muzha flows each, expanding-ring AODV, 3 s simulated.
func islandsConfig(tb testing.TB) muzha.Config {
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
	return cfg
}

// islandsResult runs islandsConfig. Its Result, 1,024 node rows and
// 128 flows, encodes to about 155 KB.
func islandsResult(tb testing.TB) *muzha.Result {
	tb.Helper()
	res, err := muzha.Run(islandsConfig(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkEncodeResult measures the daemon's canonical Result encoding
// on an islands-scale Result.
func BenchmarkEncodeResult(b *testing.B) {
	res := islandsResult(b)
	raw, err := muzha.EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := muzha.EncodeResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConfigHashAllocs bounds the allocations of hashing an
// islands-scale Config, the daemon's cache key and the sweeps' run key.
// The canonical encoder writes the 1,024-node topology in one pass; its
// JSON round trip alone took about 12,000 allocations. Under the race
// detector sync.Pool drops Puts at random, so the encoder's pooled
// buffers are sometimes reallocated; the ceiling holds in plain runs.
func TestConfigHashAllocs(t *testing.T) {
	cfg := islandsConfig(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cfg.Hash(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 && !raceEnabled {
		t.Fatalf("Config.Hash: %.0f allocs per call, want at most 16", allocs)
	}
}
