package muzha

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"muzha/internal/canon"
	"muzha/internal/packet"
	"muzha/internal/topo"
)

// This file gives Config a stable wire form: canonical JSON (sorted
// keys, explicit defaults, numbers verbatim) plus a content hash over
// it. The encoding is what a remote client ships to the muzhad daemon,
// and the hash is the daemon's result-cache key — two submissions with
// the same Hash describe the same simulation and may share a Result.
//
// Three kinds of field are deliberately excluded from the wire form
// because they are local observers, not part of the scenario:
// PacketTrace (an io.Writer), Progress/ProgressEvery (callbacks) and
// Cancel (a channel). Guards ARE carried on the wire — a remote job
// keeps its budgets — but are excluded from Hash: a run that completes
// is bit-for-bit identical with or without guards, so configurations
// differing only in guard budgets may share a cached Result.

// topologyWire is the serialized node layout. Positions and flow
// endpoints fully determine a topology, so any Topology — including
// random and mobility-modified ones — round-trips exactly.
type topologyWire struct {
	Name          string             `json:"name"`
	Positions     []topo.Position    `json:"positions"`
	FlowEndpoints [][2]packet.NodeID `json:"flow_endpoints"`
}

// MarshalJSON encodes the topology as its name, positions and
// conventional flow endpoints. A zero Topology encodes as null.
func (t Topology) MarshalJSON() ([]byte, error) {
	if t.inner == nil {
		return []byte("null"), nil
	}
	return json.Marshal(topologyWire{
		Name:          t.inner.Name,
		Positions:     t.inner.Positions,
		FlowEndpoints: t.inner.FlowEndpoints,
	})
}

// UnmarshalJSON reconstructs the topology from its wire form.
func (t *Topology) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		t.inner = nil
		return nil
	}
	var w topologyWire
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("muzha: topology: %w", err)
	}
	t.inner = &topo.Topology{
		Name:          w.Name,
		Positions:     w.Positions,
		FlowEndpoints: w.FlowEndpoints,
	}
	return nil
}

// configWire mirrors Config's serializable fields. Every field is
// always emitted (no omitempty), so defaults are explicit in the
// encoding and adding a field changes every hash at once instead of
// silently colliding old and new configs. Durations encode as
// nanosecond integers.
type configWire struct {
	Topology                Topology         `json:"topology"`
	Flows                   []Flow           `json:"flows"`
	Duration                int64            `json:"duration_ns"`
	Seed                    int64            `json:"seed"`
	MSS                     int              `json:"mss"`
	Window                  int              `json:"window"`
	DelayedAck              int64            `json:"delayed_ack_ns"`
	QueueLimit              int              `json:"queue_limit"`
	UseRED                  bool             `json:"use_red"`
	REDMarkECN              bool             `json:"red_mark_ecn"`
	REDMinTh                int              `json:"red_min_th"`
	REDMaxTh                int              `json:"red_max_th"`
	Pacing                  bool             `json:"pacing"`
	PacketErrorRate         float64          `json:"packet_error_rate"`
	BitErrorRate            float64          `json:"bit_error_rate"`
	ResidualLossRate        float64          `json:"residual_loss_rate"`
	DisableRTSCTS           bool             `json:"disable_rts_cts"`
	UseDSR                  bool             `json:"use_dsr"`
	ExpandingRing           bool             `json:"expanding_ring"`
	RouterAssist            bool             `json:"router_assist"`
	DRAI                    DRAIPolicy       `json:"drai"`
	MuzhaLossDiscrimination bool             `json:"muzha_loss_discrimination"`
	DRAIClamp               bool             `json:"drai_clamp"`
	ThroughputBin           int64            `json:"throughput_bin_ns"`
	TraceCwnd               bool             `json:"trace_cwnd"`
	TraceCap                int              `json:"trace_cap"`
	TraceFlowLimit          int              `json:"trace_flow_limit"`
	Background              []BackgroundFlow `json:"background"`
	Mobility                *Mobility        `json:"mobility"`
	Faults                  []FaultEvent     `json:"faults"`
	Guards                  RunGuards        `json:"guards"`
	Workers                 int              `json:"workers"`
}

// MarshalJSON emits the canonical wire encoding: sorted keys, explicit
// defaults, observer fields (PacketTrace, Progress, Cancel) omitted.
func (c Config) MarshalJSON() ([]byte, error) {
	return canon.JSON(configWire{
		Topology:                c.Topology,
		Flows:                   c.Flows,
		Duration:                int64(c.Duration),
		Seed:                    c.Seed,
		MSS:                     c.MSS,
		Window:                  c.Window,
		DelayedAck:              int64(c.DelayedAck),
		QueueLimit:              c.QueueLimit,
		UseRED:                  c.UseRED,
		REDMarkECN:              c.REDMarkECN,
		REDMinTh:                c.REDMinTh,
		REDMaxTh:                c.REDMaxTh,
		Pacing:                  c.Pacing,
		PacketErrorRate:         c.PacketErrorRate,
		BitErrorRate:            c.BitErrorRate,
		ResidualLossRate:        c.ResidualLossRate,
		DisableRTSCTS:           c.DisableRTSCTS,
		UseDSR:                  c.UseDSR,
		ExpandingRing:           c.ExpandingRing,
		RouterAssist:            c.RouterAssist,
		DRAI:                    c.DRAI,
		MuzhaLossDiscrimination: c.MuzhaLossDiscrimination,
		DRAIClamp:               c.DRAIClamp,
		ThroughputBin:           int64(c.ThroughputBin),
		TraceCwnd:               c.TraceCwnd,
		TraceCap:                c.TraceCap,
		TraceFlowLimit:          c.TraceFlowLimit,
		Background:              c.Background,
		Mobility:                c.Mobility,
		Faults:                  c.Faults,
		Guards:                  c.Guards,
		Workers:                 c.Workers,
	})
}

// UnmarshalJSON decodes the wire encoding. Observer fields come back
// zero; a daemon attaches its own trace writers and progress hooks.
func (c *Config) UnmarshalJSON(b []byte) error {
	var w configWire
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("muzha: config: %w", err)
	}
	*c = Config{
		Topology:                w.Topology,
		Flows:                   w.Flows,
		Duration:                durationNs(w.Duration),
		Seed:                    w.Seed,
		MSS:                     w.MSS,
		Window:                  w.Window,
		DelayedAck:              durationNs(w.DelayedAck),
		QueueLimit:              w.QueueLimit,
		UseRED:                  w.UseRED,
		REDMarkECN:              w.REDMarkECN,
		REDMinTh:                w.REDMinTh,
		REDMaxTh:                w.REDMaxTh,
		Pacing:                  w.Pacing,
		PacketErrorRate:         w.PacketErrorRate,
		BitErrorRate:            w.BitErrorRate,
		ResidualLossRate:        w.ResidualLossRate,
		DisableRTSCTS:           w.DisableRTSCTS,
		UseDSR:                  w.UseDSR,
		ExpandingRing:           w.ExpandingRing,
		RouterAssist:            w.RouterAssist,
		DRAI:                    w.DRAI,
		MuzhaLossDiscrimination: w.MuzhaLossDiscrimination,
		DRAIClamp:               w.DRAIClamp,
		ThroughputBin:           durationNs(w.ThroughputBin),
		TraceCwnd:               w.TraceCwnd,
		TraceCap:                w.TraceCap,
		TraceFlowLimit:          w.TraceFlowLimit,
		Background:              w.Background,
		Mobility:                w.Mobility,
		Faults:                  w.Faults,
		Guards:                  w.Guards,
		Workers:                 w.Workers,
	}
	return nil
}

// Hash returns the content hash identifying this scenario: the SHA-256
// of the canonical JSON encoding with Guards and Workers zeroed, as
// lowercase hex. It is THE result-cache key of the muzhad daemon —
// identical (config, seed) submissions hash identically, so their
// Results are interchangeable; Seed is part of Config, hence part of
// the hash. Observer fields (PacketTrace, Progress, Cancel), guard
// budgets and the Workers width do not affect a completed run's Result
// and are excluded.
func (c Config) Hash() (string, error) {
	c.Guards = RunGuards{}
	c.Workers = 0
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("muzha: hash config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ShortHash returns an FNV-1a 64-bit digest of the full Hash, as 16 hex
// characters — compact enough for job IDs and log lines. Collisions are
// plausible at scale, so it must never key a cache; that is Hash's job.
func (c Config) ShortHash() (string, error) {
	full, err := c.Hash()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write([]byte(full))
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// durationNs converts wire nanoseconds back to a time.Duration.
func durationNs(ns int64) time.Duration { return time.Duration(ns) }
