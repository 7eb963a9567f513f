// Package scenario defines the declarative JSON scenario spec: a
// self-contained, human-writable description of one simulation —
// topology, flow mix, mobility, background load, fault schedule and
// expected assertions — that deterministically generates a muzha.Config.
//
// The spec is the workload currency of the robustness tooling: the
// chaos fuzzer mutates specs, the shrinker minimizes them, repro.json
// files commit them, and muzhasim runs them, in-process or, with
// -remote, as the Config a muzhad daemon runs. Its wire form is
// canonical JSON (internal/canon): encoding a Spec always yields the
// same bytes regardless of field order in the source document, so a
// spec hash is a stable identity. Parsing is strict — unknown fields
// are rejected with the offending name — because a typoed knob in a
// chaos corpus must fail loudly, not silently run the wrong scenario.
//
// All durations are integer milliseconds (smallest unit the paper's
// scenarios need), keeping hand-written specs free of Go duration
// strings and the canonical form free of float formatting concerns.
//
// Boolean knobs are phrased so that the zero value is the paper's
// Table 5.1 default: RouterAssist and MuzhaLossDiscrimination default
// to ON in muzha.DefaultConfig, so the spec exposes them inverted as
// "no_router_assist" / "no_loss_discrimination". An empty stack block
// is exactly the paper's stack.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"muzha"
	"muzha/internal/canon"
)

// Spec is one declarative scenario. The zero value is not runnable —
// a topology and at least one flow are required, like muzha.Config.
type Spec struct {
	// Name is a free-form label carried through corpus entries, job
	// listings and repro files. It does not affect the generated Config
	// but IS part of the spec hash (two differently-named specs are
	// different corpus entries).
	Name string `json:"name,omitempty"`
	// Seed drives all model randomness of the run.
	Seed int64 `json:"seed"`
	// DurationMs is the simulated time in milliseconds (default 3000).
	DurationMs int64 `json:"duration_ms,omitempty"`

	Topology Topology `json:"topology"`
	Flows    []Flow   `json:"flows"`

	Background []Background `json:"background,omitempty"`
	Mobility   *Mobility    `json:"mobility,omitempty"`
	Stack      Stack        `json:"stack"`
	Faults     []Fault      `json:"faults,omitempty"`

	// Expect states the run's expected outcome; nil expects a healthy
	// run. See CheckExpect.
	Expect *Expect `json:"expect,omitempty"`
	// Guards bounds the run; nil runs with the caller's defaults.
	Guards *Guards `json:"guards,omitempty"`
}

// Topology kinds.
const (
	KindChain  = "chain"
	KindCross  = "cross"
	KindGrid   = "grid"
	KindRandom = "random"
	// KindRGeo is a random geometric graph with seeded farthest-pair
	// flows; KindGridIslands is a multi-island lattice with seeded
	// intra-island flows. Both generate their own flow mix, so a spec
	// using them may leave Flows empty (see Spec.Config).
	KindRGeo        = "rgeo"
	KindGridIslands = "grid-islands"
)

// Topology selects and parameterizes a node layout.
type Topology struct {
	// Kind is "chain", "cross", "grid", "random", "rgeo" or
	// "grid-islands".
	Kind string `json:"kind"`
	// Hops parameterizes chain (>=1) and cross (even, >=2).
	Hops int `json:"hops,omitempty"`
	// Rows and Cols parameterize grid and grid-islands (per island).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Nodes, Width, Height and PlacementSeed parameterize random and
	// rgeo. PlacementSeed 0 falls back to the spec seed, so a mutated
	// copy keeps its layout unless the mutation targets placement
	// itself.
	Nodes         int     `json:"nodes,omitempty"`
	Width         float64 `json:"width,omitempty"`
	Height        float64 `json:"height,omitempty"`
	PlacementSeed int64   `json:"placement_seed,omitempty"`
	// Flows is the seeded farthest-pair flow count for rgeo.
	Flows int `json:"flows,omitempty"`
	// Islands, Gap and FlowsPerIsland parameterize grid-islands:
	// Islands copies of a Rows x Cols lattice separated by Gap meters
	// (default 1500, comfortably beyond carrier sense), each carrying
	// FlowsPerIsland seeded flows.
	Islands        int     `json:"islands,omitempty"`
	Gap            float64 `json:"gap,omitempty"`
	FlowsPerIsland int     `json:"flows_per_island,omitempty"`
	// FlowVariant names the congestion control for generated flows
	// ("" = newreno). Only meaningful for the generator kinds.
	FlowVariant string `json:"flow_variant,omitempty"`
}

// NodeCount returns the number of nodes the topology will have, or 0
// for an invalid kind/parameterization.
func (t Topology) NodeCount() int {
	switch t.Kind {
	case KindChain:
		if t.Hops >= 1 {
			return t.Hops + 1
		}
	case KindCross:
		if t.Hops >= 2 && t.Hops%2 == 0 {
			return 2*t.Hops + 1
		}
	case KindGrid:
		if t.Rows >= 1 && t.Cols >= 1 {
			return t.Rows * t.Cols
		}
	case KindRandom, KindRGeo:
		if t.Nodes >= 2 {
			return t.Nodes
		}
	case KindGridIslands:
		if t.Islands >= 1 && t.Rows >= 1 && t.Cols >= 1 {
			return t.Islands * t.Rows * t.Cols
		}
	}
	return 0
}

// generatesFlows reports whether the topology kind seeds its own flow
// mix, letting the spec's Flows list stay empty.
func (t Topology) generatesFlows() bool {
	return t.Kind == KindRGeo || t.Kind == KindGridIslands
}

// Flow is one TCP transfer.
type Flow struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Variant names the congestion control ("" = newreno).
	Variant string `json:"variant,omitempty"`
	StartMs int64  `json:"start_ms,omitempty"`
	// Window is the advertised window in segments (0 = stack default).
	Window int `json:"window,omitempty"`
	// MaxBytes bounds the transfer (0 streams for the whole run).
	MaxBytes int64 `json:"max_bytes,omitempty"`
}

// Background is one constant-bit-rate datagram stream.
type Background struct {
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	RateBps    float64 `json:"rate_bps"`
	PacketSize int     `json:"packet_size,omitempty"`
	StartMs    int64   `json:"start_ms,omitempty"`
}

// Mobility enables node motion for the listed nodes. Model selects
// the motion model: "" or "waypoint" for random waypoint, "manhattan"
// for street-grid movement (GridSpacing metres between streets).
type Mobility struct {
	Model       string  `json:"model,omitempty"`
	Width       float64 `json:"width"`
	Height      float64 `json:"height"`
	MinSpeed    float64 `json:"min_speed"`
	MaxSpeed    float64 `json:"max_speed"`
	PauseMs     int64   `json:"pause_ms,omitempty"`
	GridSpacing float64 `json:"grid_spacing,omitempty"`
	Nodes       []int   `json:"nodes"`
}

// Stack holds the protocol-stack knobs. The zero value is the paper's
// Table 5.1 stack (hence the inverted router-assist booleans).
type Stack struct {
	// MSS, Window and QueueLimit take muzha.DefaultConfig's values
	// when 0.
	MSS        int `json:"mss,omitempty"`
	Window     int `json:"window,omitempty"`
	QueueLimit int `json:"queue_limit,omitempty"`

	DelayedAckMs int64 `json:"delayed_ack_ms,omitempty"`
	UseRED       bool  `json:"use_red,omitempty"`
	// REDMarkECN makes RED congestion-mark instead of drop (ECN-style).
	// Requires use_red.
	REDMarkECN bool `json:"red_mark_ecn,omitempty"`
	// Pacing releases segments on a cwnd/SRTT-derived rate schedule
	// instead of ack-clocked bursts. Off by default (historical
	// scheduling); BBR-lite flows pace regardless.
	Pacing   bool `json:"pacing,omitempty"`
	UseDSR   bool `json:"use_dsr,omitempty"`
	NoRTSCTS bool `json:"no_rts_cts,omitempty"`
	// ExpandingRing enables AODV expanding-ring RREQ search (RFC 3561
	// section 6.4). Off by default: the paper's scenarios flood.
	ExpandingRing bool `json:"expanding_ring,omitempty"`

	PacketErrorRate  float64 `json:"packet_error_rate,omitempty"`
	ResidualLossRate float64 `json:"residual_loss_rate,omitempty"`

	// NoRouterAssist disables DRAI stamping (on by default);
	// NoLossDiscrimination disables the marked/unmarked dup-ACK
	// classification (on by default).
	NoRouterAssist       bool `json:"no_router_assist,omitempty"`
	NoLossDiscrimination bool `json:"no_loss_discrimination,omitempty"`
	// DRAIClamp turns non-Muzha flows into router-assisted hybrids:
	// the echoed path recommendation caps their window (deceleration
	// only). Requires router assist.
	DRAIClamp bool `json:"drai_clamp,omitempty"`
}

// Fault is one scheduled fault-injection event; Kind uses the
// muzha.FaultKind names ("node-crash", "link-blackout", "partition",
// "burst-loss").
type Fault struct {
	Kind       string `json:"kind"`
	AtMs       int64  `json:"at_ms"`
	DurationMs int64  `json:"duration_ms,omitempty"`

	Node   int     `json:"node,omitempty"`
	LinkA  int     `json:"link_a,omitempty"`
	LinkB  int     `json:"link_b,omitempty"`
	OneWay bool    `json:"one_way,omitempty"`
	Groups [][]int `json:"groups,omitempty"`

	BadLossRate     float64 `json:"bad_loss_rate,omitempty"`
	GoodLossRate    float64 `json:"good_loss_rate,omitempty"`
	MeanBurstFrames float64 `json:"mean_burst_frames,omitempty"`
	MeanGapFrames   float64 `json:"mean_gap_frames,omitempty"`
}

// Expect states a spec's expected outcome. A repro spec produced by
// the shrinker sets Class to the failure class it reproduces, making
// the file self-verifying: running it "passes" exactly when the run
// fails that way again.
type Expect struct {
	// Class is the expected failure class (muzha.ClassPanic,
	// muzha.ClassLivelock, ...); "" expects a healthy run.
	Class string `json:"class,omitempty"`
	// Reach lists Sometimes assertions the run must reach.
	Reach []string `json:"reach,omitempty"`
}

// Guards bounds the run's resources; zero fields disable that guard.
type Guards struct {
	WallClockMs    int64  `json:"wall_clock_ms,omitempty"`
	MaxEvents      uint64 `json:"max_events,omitempty"`
	LivelockWindow uint64 `json:"livelock_window,omitempty"`
}

// Parse decodes a spec strictly: unknown fields and trailing data are
// rejected, so a typoed knob fails loudly instead of silently running
// a different scenario. Each patch is then decoded over the spec just
// as strictly, replacing the fields it names (see Set).
func Parse(b []byte, patches ...[]byte) (Spec, error) {
	var s Spec
	for _, doc := range append([][]byte{b}, patches...) {
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			if f, ok := unknownField(err); ok {
				return Spec{}, fmt.Errorf("scenario: unknown field %s (strict parsing; check the spec reference in EXPERIMENTS.md)", f)
			}
			return Spec{}, fmt.Errorf("scenario: parse: %w", err)
		}
		if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
			return Spec{}, fmt.Errorf("scenario: trailing data after spec document")
		}
	}
	return s, nil
}

// unknownField extracts the field name from encoding/json's unknown
// field error, which is only exposed as message text.
func unknownField(err error) (string, bool) {
	const marker = "unknown field "
	msg := err.Error()
	if i := strings.Index(msg, marker); i >= 0 {
		return msg[i+len(marker):], true
	}
	return "", false
}

// Set returns a copy of the spec with the assignments applied in
// order, each written "path=value" (muzhasim's -set). path is a dotted
// path of the spec's JSON field names, e.g. "stack.expanding_ring";
// missing objects on the way are created. value is a JSON literal
// (true, 0.02, null, {"class": "invariant"}), or else a plain string,
// so "name=run 7" needs no quotes; an object value merges into the
// field it replaces. Each edited spec is re-parsed strictly, so a
// typoed field fails with its name.
func (s Spec) Set(assignments ...string) (Spec, error) {
	for _, a := range assignments {
		path, value, ok := strings.Cut(a, "=")
		if !ok || path == "" {
			return Spec{}, fmt.Errorf("scenario: -set %q: want path=value", a)
		}
		patch := []byte(value)
		if !json.Valid(patch) {
			patch, _ = json.Marshal(value) // a string never fails to encode
		}
		keys := strings.Split(path, ".")
		for i := len(keys) - 1; i >= 0; i-- {
			patch, _ = json.Marshal(map[string]json.RawMessage{keys[i]: patch}) // patch is valid JSON
		}
		// Re-parsing the canonical form edits a deep copy, so the patch
		// cannot write through pointers the receiver shares with its caller.
		b, err := s.Canonical()
		if err == nil {
			s, err = Parse(b, patch)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("-set %s: %w", a, err)
		}
	}
	return s, nil
}

// Load reads and strictly parses a spec file.
func Load(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Canonical returns the spec's canonical JSON encoding: sorted keys,
// no insignificant whitespace, zero-valued optional fields omitted.
// Two specs differing only in source formatting or key order
// canonicalize to identical bytes.
func (s Spec) Canonical() ([]byte, error) {
	b, err := canon.JSON(s)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalize: %w", err)
	}
	return b, nil
}

// Hash returns the SHA-256 of the canonical encoding as lowercase hex
// — the spec's identity in the chaos corpus.
func (s Spec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Duration returns the simulated time, applying the 3 s default.
func (s Spec) Duration() time.Duration {
	if s.DurationMs <= 0 {
		return 3 * time.Second
	}
	return time.Duration(s.DurationMs) * time.Millisecond
}

// Config deterministically generates the runnable muzha.Config: the
// same spec always yields the same Config (and hence, by the engine's
// determinism, the same Result). The generated config is validated
// before being returned.
func (s Spec) Config() (muzha.Config, error) {
	top, err := s.topology()
	if err != nil {
		return muzha.Config{}, err
	}

	cfg := muzha.DefaultConfig()
	cfg.Topology = top
	cfg.Seed = s.Seed
	cfg.Duration = s.Duration()

	if s.Stack.MSS > 0 {
		cfg.MSS = s.Stack.MSS
	}
	if s.Stack.Window > 0 {
		cfg.Window = s.Stack.Window
	}
	if s.Stack.QueueLimit > 0 {
		cfg.QueueLimit = s.Stack.QueueLimit
	}
	cfg.DelayedAck = ms(s.Stack.DelayedAckMs)
	cfg.UseRED = s.Stack.UseRED
	cfg.REDMarkECN = s.Stack.REDMarkECN
	cfg.Pacing = s.Stack.Pacing
	cfg.UseDSR = s.Stack.UseDSR
	cfg.DisableRTSCTS = s.Stack.NoRTSCTS
	cfg.PacketErrorRate = s.Stack.PacketErrorRate
	cfg.ResidualLossRate = s.Stack.ResidualLossRate
	cfg.RouterAssist = !s.Stack.NoRouterAssist
	cfg.MuzhaLossDiscrimination = !s.Stack.NoLossDiscrimination
	cfg.DRAIClamp = s.Stack.DRAIClamp
	cfg.ExpandingRing = s.Stack.ExpandingRing

	if len(s.Flows) == 0 && s.Topology.generatesFlows() {
		// Generator topologies carry a seeded flow mix; adopt it so a
		// 1000-node spec stays a few lines instead of a few hundred.
		v := muzha.Variant(strings.ToLower(s.Topology.FlowVariant))
		for _, fe := range top.FlowEndpoints() {
			cfg.Flows = append(cfg.Flows, muzha.Flow{Src: fe[0], Dst: fe[1], Variant: v})
		}
	}
	for _, f := range s.Flows {
		cfg.Flows = append(cfg.Flows, muzha.Flow{
			Src:      f.Src,
			Dst:      f.Dst,
			Variant:  muzha.Variant(strings.ToLower(f.Variant)),
			Start:    ms(f.StartMs),
			Window:   f.Window,
			MaxBytes: f.MaxBytes,
		})
	}
	for _, b := range s.Background {
		cfg.Background = append(cfg.Background, muzha.BackgroundFlow{
			Src:        b.Src,
			Dst:        b.Dst,
			RateBps:    b.RateBps,
			PacketSize: b.PacketSize,
			Start:      ms(b.StartMs),
		})
	}
	if m := s.Mobility; m != nil {
		cfg.Mobility = &muzha.Mobility{
			Model:       m.Model,
			Width:       m.Width,
			Height:      m.Height,
			MinSpeed:    m.MinSpeed,
			MaxSpeed:    m.MaxSpeed,
			Pause:       ms(m.PauseMs),
			GridSpacing: m.GridSpacing,
			MobileNodes: append([]int(nil), m.Nodes...),
		}
	}
	for _, f := range s.Faults {
		ev := muzha.FaultEvent{
			Kind:            muzha.FaultKind(f.Kind),
			At:              ms(f.AtMs),
			Duration:        ms(f.DurationMs),
			Node:            f.Node,
			LinkA:           f.LinkA,
			LinkB:           f.LinkB,
			OneWay:          f.OneWay,
			BadLossRate:     f.BadLossRate,
			GoodLossRate:    f.GoodLossRate,
			MeanBurstFrames: f.MeanBurstFrames,
			MeanGapFrames:   f.MeanGapFrames,
		}
		for _, g := range f.Groups {
			ev.Groups = append(ev.Groups, append([]int(nil), g...))
		}
		cfg.Faults = append(cfg.Faults, ev)
	}
	if g := s.Guards; g != nil {
		cfg.Guards = muzha.RunGuards{
			WallClock:      ms(g.WallClockMs),
			MaxEvents:      g.MaxEvents,
			LivelockWindow: g.LivelockWindow,
		}
	}

	if err := cfg.Validate(); err != nil {
		return muzha.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return cfg, nil
}

// Validate reports whether the spec generates a runnable Config.
func (s Spec) Validate() error {
	_, err := s.Config()
	return err
}

func (s Spec) topology() (muzha.Topology, error) {
	t := s.Topology
	seed := t.PlacementSeed
	if seed == 0 {
		seed = s.Seed + 1
	}
	side := 1000.0 // default field edge; rgeo spreads its flows wider
	if t.Kind == KindRGeo {
		side = 3000
	}
	w, h := t.Width, t.Height
	if w <= 0 {
		w = side
	}
	if h <= 0 {
		h = side
	}
	switch t.Kind {
	case KindChain:
		return muzha.ChainTopology(t.Hops)
	case KindCross:
		return muzha.CrossTopology(t.Hops)
	case KindGrid:
		return muzha.GridTopology(t.Rows, t.Cols)
	case KindRandom:
		return muzha.RandomTopology(t.Nodes, w, h, seed)
	case KindRGeo:
		return muzha.RandomGeometricTopology(t.Nodes, w, h, t.Flows, seed)
	case KindGridIslands:
		gap := t.Gap
		if gap <= 0 {
			gap = 1500
		}
		return muzha.GridIslandsFlowsTopology(t.Islands, t.Rows, t.Cols, gap, t.FlowsPerIsland, seed)
	case "":
		return muzha.Topology{}, fmt.Errorf("scenario: topology needs a kind (chain|cross|grid|random|rgeo|grid-islands)")
	default:
		return muzha.Topology{}, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
}

// Summary renders a short human-readable description of the scenario,
// in the style of muzha.ChaosScenario's description strings.
func (s Spec) Summary() string {
	var b strings.Builder
	switch s.Topology.Kind {
	case KindChain:
		fmt.Fprintf(&b, "chain-%dhop", s.Topology.Hops)
	case KindCross:
		fmt.Fprintf(&b, "cross-%dhop", s.Topology.Hops)
	case KindGrid:
		fmt.Fprintf(&b, "grid-%dx%d", s.Topology.Rows, s.Topology.Cols)
	case KindRandom:
		fmt.Fprintf(&b, "random-%d", s.Topology.Nodes)
	case KindRGeo:
		fmt.Fprintf(&b, "rgeo-%d-f%d", s.Topology.Nodes, s.Topology.Flows)
	case KindGridIslands:
		fmt.Fprintf(&b, "grid-islands-%dx%dx%d-f%d",
			s.Topology.Islands, s.Topology.Rows, s.Topology.Cols, s.Topology.FlowsPerIsland)
	default:
		b.WriteString("?" + s.Topology.Kind)
	}
	for _, f := range s.Flows {
		v := f.Variant
		if v == "" {
			v = "newreno"
		}
		fmt.Fprintf(&b, " %s:%d->%d", v, f.Src, f.Dst)
	}
	if s.Stack.UseDSR {
		b.WriteString(" dsr")
	}
	if s.Stack.UseRED {
		b.WriteString(" red")
	}
	if s.Stack.REDMarkECN {
		b.WriteString(" ecn-mark")
	}
	if s.Stack.Pacing {
		b.WriteString(" paced")
	}
	if s.Stack.ExpandingRing {
		b.WriteString(" ring")
	}
	if s.Mobility != nil {
		if s.Mobility.Model != "" && s.Mobility.Model != "waypoint" {
			fmt.Fprintf(&b, " %s", s.Mobility.Model)
		}
		fmt.Fprintf(&b, " mobile=%v", s.Mobility.Nodes)
	}
	for _, f := range s.Faults {
		fmt.Fprintf(&b, " %s@%.1fs", f.Kind, float64(f.AtMs)/1000)
	}
	return b.String()
}

// CheckExpect verifies a run outcome against the spec's expectations.
// class is the run's failure class ("" for a healthy run, see
// muzha.ClassifyRun); res may be nil when the run produced
// no Result (guard abort, panic). It returns nil when every
// expectation held.
func CheckExpect(s Spec, res *muzha.Result, class string) error {
	want := ""
	var reach []string
	if s.Expect != nil {
		want = s.Expect.Class
		reach = s.Expect.Reach
	}
	if class != want {
		if want == "" {
			return fmt.Errorf("scenario: expected a healthy run, got failure class %q", class)
		}
		return fmt.Errorf("scenario: expected failure class %q, got %q", want, orHealthy(class))
	}
	if len(reach) == 0 {
		return nil
	}
	if res == nil {
		return fmt.Errorf("scenario: expected to reach %v but the run produced no result", reach)
	}
	got := make(map[string]bool)
	for _, name := range res.SometimesCoverage() {
		got[name] = true
	}
	var missing []string
	for _, name := range reach {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("scenario: expected Sometimes assertions never reached: %v", missing)
	}
	return nil
}

func orHealthy(class string) string {
	if class == "" {
		return "healthy"
	}
	return class
}

func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }
