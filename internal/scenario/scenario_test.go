package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	"muzha"
)

// sampleSpec is a spec exercising every block: topology, multiple
// flows, background, mobility, stack knobs, faults, expect, guards.
const sampleSpec = `{
	"name": "full",
	"seed": 42,
	"duration_ms": 2500,
	"topology": {"kind": "grid", "rows": 3, "cols": 3},
	"flows": [
		{"src": 0, "dst": 8, "variant": "muzha", "start_ms": 100, "window": 16},
		{"src": 2, "dst": 6, "variant": "newreno", "max_bytes": 65536}
	],
	"background": [{"src": 1, "dst": 7, "rate_bps": 50000, "start_ms": 500}],
	"mobility": {"width": 1500, "height": 1500, "min_speed": 1, "max_speed": 5, "pause_ms": 1000, "nodes": [4]},
	"stack": {"queue_limit": 25, "use_red": true, "residual_loss_rate": 0.004},
	"faults": [
		{"kind": "node-crash", "at_ms": 800, "duration_ms": 400, "node": 4},
		{"kind": "partition", "at_ms": 1500, "groups": [[0, 1, 2]]}
	],
	"expect": {"reach": ["fault-injected"]},
	"guards": {"max_events": 1000000}
}`

func TestSpecRoundTripStable(t *testing.T) {
	s, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c1, err := s.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	// canonical -> Parse -> canonical must be a fixpoint.
	s2, err := Parse(c1)
	if err != nil {
		t.Fatalf("reparse canonical: %v", err)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatalf("re-canonicalize: %v", err)
	}
	if string(c1) != string(c2) {
		t.Fatalf("canonical form is not a fixpoint:\n%s\nvs\n%s", c1, c2)
	}

	// The same spec must generate the same Config, bit for bit.
	h1 := mustConfigHash(t, s)
	h2 := mustConfigHash(t, s2)
	if h1 != h2 {
		t.Fatalf("round-tripped spec generates a different config: %s vs %s", h1, h2)
	}
}

func mustConfigHash(t *testing.T, s Spec) string {
	t.Helper()
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	h, err := cfg.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	return h
}

func TestSpecHashStableUnderKeyReordering(t *testing.T) {
	a := `{"seed": 5, "topology": {"kind": "chain", "hops": 4}, "flows": [{"src": 0, "dst": 4}], "stack": {}}`
	b := `{"flows": [{"dst": 4, "src": 0}], "stack": {}, "topology": {"hops": 4, "kind": "chain"}, "seed": 5}`
	sa, err := Parse([]byte(a))
	if err != nil {
		t.Fatalf("Parse a: %v", err)
	}
	sb, err := Parse([]byte(b))
	if err != nil {
		t.Fatalf("Parse b: %v", err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatalf("Hash a: %v", err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatalf("Hash b: %v", err)
	}
	if ha != hb {
		t.Fatalf("key order changed the spec hash: %s vs %s", ha, hb)
	}
	// A semantic change must change the hash.
	sb.Seed = 6
	hc, err := sb.Hash()
	if err != nil {
		t.Fatalf("Hash c: %v", err)
	}
	if hc == ha {
		t.Fatal("different specs share a hash")
	}
}

func TestParseRejectsUnknownFieldWithName(t *testing.T) {
	_, err := Parse([]byte(`{"seed": 1, "topolgy": {"kind": "chain", "hops": 3}}`))
	if err == nil {
		t.Fatal("typoed field accepted")
	}
	if !strings.Contains(err.Error(), "topolgy") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
	if !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("error does not say what went wrong: %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"seed": 1} {"seed": 2}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestSetEditsFields(t *testing.T) {
	orig, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	s, err := orig.Set(
		"stack.expanding_ring=true",
		"seed=5452762862878174055", // beyond float64's exact integers
		"name=run 7",               // plain string, no quotes
		"expect=null",
		`expect={"class": "invariant"}`,
		"guards=null",
		"mobility.pause_ms=0",
		`flows=[{"src": 0, "dst": 8, "variant": "cubic"}]`,
	)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stack.ExpandingRing || s.Seed != 5452762862878174055 || s.Name != "run 7" ||
		s.Expect.Class != "invariant" || s.Expect.Reach != nil || s.Guards != nil ||
		s.Mobility.PauseMs != 0 || len(s.Flows) != 1 || s.Flows[0].Variant != "cubic" ||
		s.Stack.QueueLimit != 25 || s.Stack.ResidualLossRate != 0.004 {
		t.Fatalf("edited spec = %+v", s)
	}
	if orig.Expect.Reach == nil || orig.Mobility.PauseMs != 1000 || orig.Guards == nil {
		t.Fatalf("Set wrote through to the original spec: %+v", orig)
	}
	// Missing objects on the path are created.
	if s, err = s.Set("expect=null", "expect.class=livelock"); err != nil || s.Expect.Class != "livelock" {
		t.Fatalf("Set through a missing object: %+v, %v", s.Expect, err)
	}
}

func TestSetRejectsBadAssignments(t *testing.T) {
	s, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"stack.expanding_rng=true": `unknown field "expanding_rng"`,
		"no-equals-sign":           "want path=value",
		"=3":                       "want path=value",
		"flows.0.variant=muzha":    "flows",
		"seed.low=1":               "seed",
		"duration_ms=soon":         "duration_ms",
	}
	for a, want := range cases {
		_, err := s.Set(a)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Set(%q) = %v, want an error containing %q", a, err, want)
		}
	}
}

func TestConfigRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"no topology kind":   `{"seed": 1, "flows": [{"src": 0, "dst": 1}]}`,
		"unknown topology":   `{"seed": 1, "topology": {"kind": "torus", "hops": 3}, "flows": [{"src": 0, "dst": 1}]}`,
		"unknown fault kind": `{"seed": 1, "topology": {"kind": "chain", "hops": 3}, "flows": [{"src": 0, "dst": 3}], "faults": [{"kind": "meteor", "at_ms": 100}]}`,
		"mobile node range":  `{"seed": 1, "topology": {"kind": "chain", "hops": 3}, "flows": [{"src": 0, "dst": 3}], "mobility": {"width": 100, "height": 100, "min_speed": 1, "max_speed": 2, "nodes": [99]}}`,
		"no flows":           `{"seed": 1, "topology": {"kind": "chain", "hops": 3}}`,
	}
	for name, doc := range cases {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: parse should succeed (validation is Config's job): %v", name, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec validated", name)
		}
	}
}

func TestSpecConfigIsDeterministicAndRunnable(t *testing.T) {
	s, err := Parse([]byte(sampleSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if got := cfg.Topology.Nodes(); got != 9 {
		t.Fatalf("grid 3x3 generated %d nodes", got)
	}
	if len(cfg.Flows) != 2 || cfg.Flows[1].MaxBytes != 65536 {
		t.Fatalf("flows not mapped: %+v", cfg.Flows)
	}
	if cfg.QueueLimit != 25 || !cfg.UseRED {
		t.Fatalf("stack knobs not mapped: queue=%d red=%v", cfg.QueueLimit, cfg.UseRED)
	}
	// Inverted booleans: an empty stack block keeps the paper defaults.
	if !cfg.RouterAssist || !cfg.MuzhaLossDiscrimination {
		t.Fatal("zero-value stack lost the paper's router-assist defaults")
	}
	if cfg.Guards.MaxEvents != 1000000 {
		t.Fatalf("guards not mapped: %+v", cfg.Guards)
	}

	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := CheckExpect(s, res, ""); err != nil {
		t.Fatalf("expectations not met: %v", err)
	}
}

// TestCommittedSpecsBuildValidConfigs loads every spec under
// examples/scenarios and builds its Config, which validates it, without
// running it.
func TestCommittedSpecsBuildValidConfigs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("found %d committed specs, want at least 3: %v", len(paths), paths)
	}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if _, err := s.Config(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestGeneratorTopologiesSeedTheirOwnFlows(t *testing.T) {
	cases := map[string]struct {
		doc   string
		nodes int
		flows int
	}{
		"rgeo": {
			doc:   `{"seed": 5, "topology": {"kind": "rgeo", "nodes": 60, "width": 1200, "height": 1200, "flows": 4, "flow_variant": "muzha"}}`,
			nodes: 60,
			flows: 4,
		},
		"grid-islands": {
			doc:   `{"seed": 5, "topology": {"kind": "grid-islands", "islands": 2, "rows": 3, "cols": 3, "flows_per_island": 2}}`,
			nodes: 18,
			flows: 4,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Parse([]byte(tc.doc))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if got := s.Topology.NodeCount(); got != tc.nodes {
				t.Fatalf("NodeCount = %d, want %d", got, tc.nodes)
			}
			cfg, err := s.Config()
			if err != nil {
				t.Fatalf("Config: %v", err)
			}
			if got := cfg.Topology.Nodes(); got != tc.nodes {
				t.Fatalf("generated %d nodes, want %d", got, tc.nodes)
			}
			if len(cfg.Flows) != tc.flows {
				t.Fatalf("generated %d flows, want %d", len(cfg.Flows), tc.flows)
			}
			// Determinism: the same spec must hash to the same config.
			if h1, h2 := mustConfigHash(t, s), mustConfigHash(t, s); h1 != h2 {
				t.Fatalf("config hash unstable: %s vs %s", h1, h2)
			}
			// Explicit flows still override the generated mix.
			s.Flows = []Flow{{Src: 0, Dst: 1}}
			cfg2, err := s.Config()
			if err != nil {
				t.Fatalf("Config with explicit flows: %v", err)
			}
			if len(cfg2.Flows) != 1 {
				t.Fatalf("explicit flows not honored: %d", len(cfg2.Flows))
			}
		})
	}
}

func TestStackScalingKnobs(t *testing.T) {
	doc := `{"seed": 1, "topology": {"kind": "chain", "hops": 3},
		"flows": [{"src": 0, "dst": 3}],
		"stack": {"expanding_ring": true}}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if !cfg.ExpandingRing {
		t.Fatal("expanding_ring not mapped")
	}
}

// TestModernStackAndMobilityKnobs covers the modern-sender additions:
// RED ECN-marking, pacing, the new variant
// names and the Manhattan mobility model, end to end through strict
// parse -> Config.
func TestModernStackAndMobilityKnobs(t *testing.T) {
	doc := `{"seed": 3, "topology": {"kind": "chain", "hops": 4},
		"flows": [
			{"src": 0, "dst": 4, "variant": "cubic"},
			{"src": 4, "dst": 0, "variant": "bbr-lite"}
		],
		"mobility": {"model": "manhattan", "width": 720, "height": 360,
			"grid_spacing": 180, "min_speed": 1, "max_speed": 3, "nodes": [2]},
		"stack": {"use_red": true, "red_mark_ecn": true, "pacing": true,
			"drai_clamp": true}}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if cfg.Flows[0].Variant != muzha.CUBIC || cfg.Flows[1].Variant != muzha.BBRLite {
		t.Fatalf("variants not mapped: %+v", cfg.Flows)
	}
	if !cfg.UseRED || !cfg.REDMarkECN {
		t.Fatalf("RED knobs not mapped: red=%v mark=%v", cfg.UseRED, cfg.REDMarkECN)
	}
	if !cfg.Pacing {
		t.Fatal("pacing knob not mapped")
	}
	if !cfg.DRAIClamp {
		t.Fatal("drai_clamp knob not mapped")
	}
	if cfg.Mobility == nil || cfg.Mobility.Model != muzha.MobilityManhattan ||
		cfg.Mobility.GridSpacing != 180 {
		t.Fatalf("mobility model not mapped: %+v", cfg.Mobility)
	}
	for _, marker := range []string{"cubic", "bbr-lite", "ecn-mark", "paced", "manhattan"} {
		if !strings.Contains(s.Summary(), marker) {
			t.Errorf("summary %q lacks %q", s.Summary(), marker)
		}
	}

	// The new stack fields are strict-parsed like every other.
	if _, err := Parse([]byte(`{"seed": 1, "stack": {"red_mark_ecn ": true}}`)); err == nil {
		t.Fatal("typoed RED field accepted")
	}
	if _, err := Parse([]byte(`{"seed": 1, "stack": {"use_red": true, "red_min_th": 5}}`)); err == nil {
		t.Fatal("removed RED threshold field accepted")
	}
	if _, err := Parse([]byte(`{"seed": 1, "mobility": {"modell": "manhattan"}}`)); err == nil {
		t.Fatal("typoed mobility field accepted")
	}
}

// TestModernKnobsRejectInvalidCombos pins the validation rules: RED
// ECN marking requires use_red, and the mobility model name is
// whitelisted.
func TestModernKnobsRejectInvalidCombos(t *testing.T) {
	cases := map[string]string{
		"ecn mark without red": `{"seed": 1, "topology": {"kind": "chain", "hops": 3},
			"flows": [{"src": 0, "dst": 3}], "stack": {"red_mark_ecn": true}}`,
		"unknown mobility model": `{"seed": 1, "topology": {"kind": "chain", "hops": 3},
			"flows": [{"src": 0, "dst": 3}],
			"mobility": {"model": "brownian", "width": 100, "height": 100,
				"min_speed": 1, "max_speed": 2, "nodes": [1]}}`,
		"unknown variant": `{"seed": 1, "topology": {"kind": "chain", "hops": 3},
			"flows": [{"src": 0, "dst": 3, "variant": "compound"}]}`,
		"drai clamp without router assist": `{"seed": 1,
			"topology": {"kind": "chain", "hops": 3},
			"flows": [{"src": 0, "dst": 3, "variant": "cubic"}],
			"stack": {"no_router_assist": true, "drai_clamp": true}}`,
	}
	for name, doc := range cases {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: parse should succeed (validation is Config's job): %v", name, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec validated", name)
		}
	}
}

func TestCheckExpect(t *testing.T) {
	var s Spec
	if err := CheckExpect(s, nil, ""); err != nil {
		t.Fatalf("healthy run vs no expectations: %v", err)
	}
	if err := CheckExpect(s, nil, "panic"); err == nil {
		t.Fatal("unexpected failure class accepted")
	}
	s.Expect = &Expect{Class: "event-budget"}
	if err := CheckExpect(s, nil, "event-budget"); err != nil {
		t.Fatalf("matching class rejected: %v", err)
	}
	if err := CheckExpect(s, nil, ""); err == nil {
		t.Fatal("healthy run accepted when a failure was expected")
	}
	s.Expect = &Expect{Reach: []string{"never-registered"}}
	if err := CheckExpect(s, &muzha.Result{}, ""); err == nil {
		t.Fatal("unreached assertion accepted")
	}
}
