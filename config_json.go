package muzha

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"

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

// MarshalJSON emits the canonical wire encoding: Config's tagged
// fields with sorted keys and explicit defaults (no omitempty, so
// adding a field changes every hash at once instead of silently
// colliding old and new configs), durations as nanosecond integers,
// observer fields (PacketTrace, Progress, Cancel) omitted.
func (c Config) MarshalJSON() ([]byte, error) {
	type plain Config
	return canon.JSON(plain(c))
}

// UnmarshalJSON decodes the wire encoding. Observer fields come back
// zero; a daemon attaches its own trace writers and progress hooks.
func (c *Config) UnmarshalJSON(b []byte) error {
	type plain Config
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("muzha: config: %w", err)
	}
	*c = Config(p)
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
