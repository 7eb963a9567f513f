package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"muzha/internal/jsonl"
)

// Entry is one journaled job outcome — a single JSONL line. Value holds
// the job's marshaled result and is decoded by the caller on resume.
type Entry struct {
	Key   string          `json:"key"`
	OK    bool            `json:"ok"`
	Class string          `json:"class,omitempty"`
	Err   string          `json:"err,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
}

// Journal is an append-only JSONL record of finished jobs, kept by an
// internal/jsonl log. Opening an existing journal loads its entries so
// a restarted sweep can skip them; Record appends one line per
// completed job as workers finish, so a killed sweep loses at most the
// in-flight runs. Record and Lookup are safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	log     *jsonl.Log
	done    map[string]Entry
	skipped int
}

// OpenJournal opens (creating if absent) the journal at path and loads
// every parseable entry. A truncated final line — the signature of a
// kill mid-write — is skipped, not fatal; Skipped reports how many lines
// were dropped.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[string]Entry)}
	log, skipped, err := jsonl.Open(path, func(line []byte) bool {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			return false
		}
		j.done[e.Key] = e
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	j.log, j.skipped = log, skipped
	return j, nil
}

// Lookup returns the journaled entry for key, if one exists.
func (j *Journal) Lookup(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.done[key]
	return e, ok
}

// Skipped reports how many unparseable lines the load dropped.
func (j *Journal) Skipped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skipped
}

// Len reports how many entries the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one entry. The first write error latches — the sweep
// must not die on journal I/O — and surfaces via Err and Close.
func (j *Journal) Record(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[e.Key] = e
	j.log.Append(e)
}

// Err returns the first latched journal I/O error.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Err()
}

// Close closes the journal, returning any latched write error so a
// truncated journal is never mistaken for a complete one.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
