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

	"muzha/internal/canon"
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
	for _, want := range []string{`"use_red":false`, `"use_dsr":false`, `"pacing":false`, `"disable_rts_cts":false`} {
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
	// (guards included) of this config. A change to either orphans
	// every cached result and journaled sweep, so it must be deliberate.
	const wantHash = "cc740cad326526ce4c749bfc2eb517fbe48dbb8bcc1673e1c0c2f83d491c1ee5"
	if h1 != wantHash {
		t.Fatalf("Hash = %s, want pinned %s", h1, wantHash)
	}
	wire, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const wantWire = "e0b7454d08f8a881d108b1118ce3a34c100a6f6e4699e1834dbcd86298c03790"
	if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != wantWire {
		t.Fatalf("canonical bytes digest = %s, want pinned %s:\n%s", got, wantWire, wire)
	}

	// The hash covers the wire bytes without their guards member, so
	// no RunGuards field name is part of a cache key.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(wire, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "guards")
	unguarded, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if unguarded, err = canon.Bytes(unguarded); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(unguarded)); got != h1 {
		t.Fatalf("Hash = %s, want the digest of the wire bytes without guards, %s", h1, got)
	}

	// Guard budgets and observers must not move the hash: they cannot
	// change what a completed run computes, so configs differing only
	// there share a cached Result.
	varied := cfg
	varied.Guards = RunGuards{WallClock: time.Hour, MaxEvents: 7}
	varied.Progress = func(ProgressUpdate) {}
	varied.Cancel = make(chan struct{})
	varied.PacketTrace = &bytes.Buffer{}
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

// TestConfigJSONRejectsUnknownKeys pins strict decoding: a key that
// names no field, at the top level or inside the topology, is an error
// that names the key, so a config written for a removed option fails
// instead of running without it.
func TestConfigJSONRejectsUnknownKeys(t *testing.T) {
	b, err := json.Marshal(wireTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for key, doc := range map[string]string{
		"bit_error_rate": `{"bit_error_rate":0.001,` + string(b[1:]),
		"radius":         strings.Replace(string(b), `"topology":{`, `"topology":{"radius":250,`, 1),
		"workers":        `{"workers":2,` + string(b[1:]),
		"CheckEvery":     strings.Replace(string(b), `"guards":{`, `"guards":{"CheckEvery":50,`, 1),
	} {
		var c Config
		err := json.Unmarshal([]byte(doc), &c)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("unknown key %q: err = %v, want an error naming it", key, err)
		}
	}
}
