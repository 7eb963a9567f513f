package muzha

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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
// PacketTrace (an io.Writer), Progress (a callback) and
// Cancel (a channel). Guards ARE carried on the wire — a remote job
// keeps its budgets — but Hash leaves the guards member out: a run
// that completes is bit-for-bit identical with or without guards, so
// configurations differing only in guard budgets may share a cached
// Result.

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
func (t Topology) MarshalJSON() ([]byte, error) { return json.Marshal(t.Wire()) }

// Wire returns the value MarshalJSON encodes, a topologyWire or nil, so
// the canonical encoder of a Config writes it in one pass.
func (t Topology) Wire() any {
	if t.inner == nil {
		return nil
	}
	return topologyWire{
		Name:          t.inner.Name,
		Positions:     t.inner.Positions,
		FlowEndpoints: t.inner.FlowEndpoints,
	}
}

// UnmarshalJSON reconstructs the topology from its wire form.
func (t *Topology) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		t.inner = nil
		return nil
	}
	var w topologyWire
	if err := decodeStrict(b, &w); err != nil {
		return fmt.Errorf("muzha: topology: %w", err)
	}
	t.inner = &topo.Topology{
		Name:          w.Name,
		Positions:     w.Positions,
		FlowEndpoints: w.FlowEndpoints,
	}
	return nil
}

// MarshalJSON emits the canonical wire encoding: Config's tagged
// fields with sorted keys and explicit defaults (no omitempty, so
// adding a field changes every hash at once instead of silently
// colliding old and new configs), durations as nanosecond integers,
// observer fields (PacketTrace, Progress, Cancel) omitted.
func (c Config) MarshalJSON() ([]byte, error) {
	type plain Config
	return canon.JSON(plain(c))
}

// UnmarshalJSON decodes the wire encoding strictly: a key that names
// no field is an error naming that key, so a config written for an
// option that no longer exists fails instead of running without it.
// Observer fields come back zero; a daemon attaches its own trace
// writers and progress hooks.
func (c *Config) UnmarshalJSON(b []byte) error {
	type plain Config
	var p plain
	if err := decodeStrict(b, &p); err != nil {
		return fmt.Errorf("muzha: config: %w", err)
	}
	*c = Config(p)
	return nil
}

// decodeStrict decodes one JSON value into v, rejecting unknown keys.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Hash returns the content hash identifying this scenario: the SHA-256
// of the canonical JSON encoding without its guards member, as
// lowercase hex. It is THE result-cache key of the muzhad daemon —
// identical (config, seed) submissions hash identically, so their
// Results are interchangeable; Seed is part of Config, hence part of
// the hash. Observer fields (PacketTrace, Progress, Cancel) and guard
// budgets do not affect a completed run's Result and are excluded, so
// adding or removing a RunGuards field leaves every key in place.
func (c Config) Hash() (string, error) {
	c.Guards = RunGuards{}
	b, err := c.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("muzha: hash config: %w", err)
	}
	// b is the encoder's own copy, so the member is cut in place.
	before, after, _ := bytes.Cut(b, zeroGuardsMember)
	sum := sha256.Sum256(append(before, after...))
	return hex.EncodeToString(sum[:]), nil
}

// zeroGuardsMember is the member a Config with zero Guards encodes as,
// comma included: "guards" sorts before other keys, so it never ends
// the object.
var zeroGuardsMember = func() []byte {
	b, err := canon.JSON(RunGuards{})
	if err != nil {
		panic(err)
	}
	return append(append([]byte(`"guards":`), b...), ',')
}()
