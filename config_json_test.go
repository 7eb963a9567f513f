package muzha

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// wireTestConfig exercises every serializable field: nested policy,
// background traffic, mobility, faults and guards.
func wireTestConfig(t *testing.T) Config {
	t.Helper()
	top, err := ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 12 * time.Second
	cfg.Seed = 42
	cfg.DelayedAck = 200 * time.Millisecond
	cfg.PacketErrorRate = 0.01
	cfg.ResidualLossRate = 0.001
	cfg.ThroughputBin = time.Second
	cfg.TraceCwnd = true
	cfg.DRAIClamp = true
	cfg.Flows = []Flow{
		{Src: 0, Dst: 4, Variant: Muzha, Window: 8},
		{Src: 4, Dst: 0, Variant: Vegas, Start: time.Second, MaxBytes: 1 << 20},
	}
	cfg.Background = []BackgroundFlow{{Src: 1, Dst: 3, RateBps: 64_000, PacketSize: 256, Start: 2 * time.Second}}
	cfg.Mobility = &Mobility{Width: 1500, Height: 300, MinSpeed: 1, MaxSpeed: 5, Pause: 2 * time.Second, MobileNodes: []int{2}}
	cfg.Faults = []FaultEvent{
		{Kind: FaultLinkBlackout, At: 3 * time.Second, Duration: time.Second, LinkA: 1, LinkB: 2},
		{Kind: FaultBurstLoss, At: 5 * time.Second, BadLossRate: 0.5},
	}
	cfg.Guards = RunGuards{WallClock: time.Minute, MaxEvents: 1_000_000, LivelockWindow: 100_000}
	cfg.Workers = 2
	return cfg
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := wireTestConfig(t)
	first, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the encoding:\n first: %s\nsecond: %s", first, second)
	}
	// Spot-check semantics, not just bytes.
	if back.Topology.Nodes() != 5 || back.Topology.Name() != cfg.Topology.Name() {
		t.Fatalf("topology lost: %d nodes, name %q", back.Topology.Nodes(), back.Topology.Name())
	}
	if back.Duration != cfg.Duration || back.DelayedAck != cfg.DelayedAck || back.ThroughputBin != cfg.ThroughputBin {
		t.Fatal("durations lost in round trip")
	}
	if len(back.Flows) != 2 || back.Flows[1].MaxBytes != 1<<20 || back.Flows[0].Variant != Muzha {
		t.Fatalf("flows lost: %+v", back.Flows)
	}
	if back.Mobility == nil || back.Mobility.Pause != 2*time.Second {
		t.Fatalf("mobility lost: %+v", back.Mobility)
	}
	if len(back.Faults) != 2 || back.Faults[0].Kind != FaultLinkBlackout {
		t.Fatalf("faults lost: %+v", back.Faults)
	}
	if back.Guards != cfg.Guards {
		t.Fatalf("guards lost: %+v", back.Guards)
	}
	if !back.DRAIClamp {
		t.Fatal("DRAIClamp lost in round trip")
	}
	if back.Workers != cfg.Workers {
		t.Fatalf("workers lost: %d", back.Workers)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped config invalid: %v", err)
	}
}

func TestConfigJSONSortedKeysAndExplicitDefaults(t *testing.T) {
	cfg := wireTestConfig(t)
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Top-level keys must come out sorted — that is the canonical-form
	// guarantee the daemon's cache key depends on.
	dec := json.NewDecoder(bytes.NewReader(b))
	var keys []string
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if depth == 1 && dec.More() {
				keys = append(keys, v)
			}
		}
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("top-level keys not sorted: %v", keys)
	}
	// Defaults are explicit: fields left at their zero value still appear.
	for _, want := range []string{`"use_red":false`, `"use_dsr":false`, `"bit_error_rate":0`, `"disable_rts_cts":false`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoding omits default %s:\n%s", want, b)
		}
	}
	// Observer fields never reach the wire.
	for _, banned := range []string{"Progress", "progress", "Cancel", "cancel", "PacketTrace", "packet_trace"} {
		if strings.Contains(string(b), `"`+banned+`"`) {
			t.Errorf("observer field %q leaked into the encoding", banned)
		}
	}
}

func TestConfigHashStability(t *testing.T) {
	cfg := wireTestConfig(t)
	h1, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash is not sha256 hex: %q", h1)
	}
	// Pinned literals: the cache key and the canonical wire bytes
	// (guards and workers included) of this config. A change to either
	// orphans every cached result and journaled sweep, so it must be
	// deliberate.
	const wantHash = "43f41cd04bdb1ba2b0d864afce73f5983b9b42264c4552c8c203bcaea53089e8"
	if h1 != wantHash {
		t.Fatalf("Hash = %s, want pinned %s", h1, wantHash)
	}
	wire, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const wantWire = "d2791304ffe24c0d13b0026f60cd64453a4a6225ea715702a2330f6851bcff6d"
	if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != wantWire {
		t.Fatalf("canonical bytes digest = %s, want pinned %s:\n%s", got, wantWire, wire)
	}

	// Guard budgets, observers and the engine width must not move the
	// hash: they cannot change what a completed run computes, so
	// configs differing only there share a cached Result.
	varied := cfg
	varied.Guards = RunGuards{WallClock: time.Hour, MaxEvents: 7}
	varied.Progress = func(ProgressUpdate) {}
	varied.ProgressEvery = 123
	varied.Cancel = make(chan struct{})
	varied.PacketTrace = &bytes.Buffer{}
	varied.Workers = 8
	hv, err := varied.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hv != h1 {
		t.Fatalf("guards/observers changed the hash: %s vs %s", hv, h1)
	}

	// Scenario changes must move it.
	for name, mutate := range map[string]func(*Config){
		"seed":       func(c *Config) { c.Seed++ },
		"duration":   func(c *Config) { c.Duration += time.Second },
		"variant":    func(c *Config) { c.Flows[0].Variant = NewReno },
		"per":        func(c *Config) { c.PacketErrorRate = 0.02 },
		"drai_clamp": func(c *Config) { c.DRAIClamp = false },
	} {
		other := wireTestConfig(t)
		mutate(&other)
		ho, err := other.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if ho == h1 {
			t.Errorf("changing %s did not change the hash", name)
		}
	}

	// A wire round trip is hash-preserving — a daemon hashing a decoded
	// submission agrees with the client hashing the original.
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	hb, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb != h1 {
		t.Fatalf("round trip changed the hash: %s vs %s", hb, h1)
	}
}

func TestConfigShortHash(t *testing.T) {
	cfg := wireTestConfig(t)
	s, err := cfg.ShortHash()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 16 {
		t.Fatalf("short hash = %q, want 16 hex chars", s)
	}
	other := wireTestConfig(t)
	other.Seed++
	so, err := other.ShortHash()
	if err != nil {
		t.Fatal(err)
	}
	if so == s {
		t.Fatal("different configs share a short hash")
	}
}

func TestTopologyJSONNull(t *testing.T) {
	var zero Topology
	b, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "null" {
		t.Fatalf("zero topology = %s, want null", b)
	}
	var back Topology
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Nodes() != 0 {
		t.Fatal("null topology decoded non-empty")
	}
}
