// Package jobs is the simulation-as-a-service layer behind the muzhad
// daemon: a job store journaled to JSONL (crash-recoverable), a
// content-addressed result cache keyed by Config.Hash() (harness.Cache,
// the store muzha sweeps resume from), an HTTP server
// with bounded-queue admission control and SSE progress streaming, and
// a small client used by `muzhasim -remote`.
//
// A submission is one muzha.Config, and POST /v1/jobs is the only way
// in: clients compile scenario specs and sweeps into Configs
// themselves and submit them one at a time.
//
// The contract that makes the cache sound is determinism: a Config
// fully determines its Result, so the canonical encoding of the Config
// (its Hash) is a complete identity for the canonical encoding of the
// Result. Identical (config, seed) submissions are served from the
// cache byte-for-byte without re-running the simulation.
package jobs

import (
	"encoding/json"

	"muzha"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: queued -> running -> done|failed. A daemon killed
// mid-job reopens its store with the interrupted job back in queued.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Progress is a running job's latest snapshot, streamed to clients.
type Progress struct {
	// SimTimeNs is the virtual time reached, in nanoseconds.
	SimTimeNs int64 `json:"sim_time_ns"`
	// Events is the number of engine events executed.
	Events uint64 `json:"events"`
}

// Job is one submission's record — the API response body and the
// snapshot the Store journals on every state transition. It carries
// metadata only: a done job's Result lives in the result cache under
// Hash and is served by GET /v1/jobs/{id}/result.
type Job struct {
	// ID is the daemon-assigned identifier, e.g. "j000007-1a2b3c4d5e6f".
	ID string `json:"id"`
	// Hash is Config.Hash(), the result-cache key.
	Hash string `json:"hash"`
	// Client identifies the submitter for per-client admission limits.
	Client string `json:"client,omitempty"`
	State  State  `json:"state"`
	// Cached marks a job satisfied from the result cache at admission,
	// without running.
	Cached bool `json:"cached,omitempty"`
	// Config is the canonical encoding of the submitted muzha.Config.
	Config json.RawMessage `json:"config,omitempty"`
	// Error and Class describe a failed job (see muzha.Classify).
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`
	// Progress is the latest in-run snapshot.
	Progress Progress `json:"progress"`
}

// EncodeResult is muzha.EncodeResult, the canonical Result encoding
// the daemon caches and serves; it never changes r. The code in this
// module calls muzha.EncodeResult; this name remains for the perfbench
// module.
func EncodeResult(r *muzha.Result) (json.RawMessage, error) {
	return muzha.EncodeResult(r)
}
