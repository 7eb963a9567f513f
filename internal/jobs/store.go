package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"muzha/internal/jsonl"
)

// Store is the daemon's file-backed job table: an append-only JSONL
// journal of Job snapshots, one line per state transition, last
// snapshot wins. It holds job metadata only; results live in the
// Cache. Only a job's first line carries its config: transition lines
// leave it out, and replay keeps the config of the earlier line. The
// journal is an internal/jsonl log, so a SIGKILL mid-write costs at most
// the half-written line; jobs whose last snapshot was queued or running
// are handed back as Requeued() for the daemon to re-run.
type Store struct {
	mu       sync.Mutex
	log      *jsonl.Log
	jobs     map[string]*Job
	requeued []string
	nextSeq  uint64
	skipped  int
	// configs holds the config bytes last stored under each hash, so
	// repeated submissions of one config share a single copy.
	configs map[string]json.RawMessage
}

// OpenStore opens (creating if absent) the job journal at path and
// replays it. Journals from older daemons, which wrote the config on
// every line and a "result" key on done snapshots, replay the same: a
// repeated config is taken, the result ignored.
func OpenStore(path string) (*Store, error) {
	s := &Store{
		jobs:    make(map[string]*Job),
		configs: make(map[string]json.RawMessage),
	}
	var order []string // IDs by first appearance, i.e. submission order
	log, skipped, err := jsonl.Open(path, func(line []byte) bool {
		var j Job
		if err := json.Unmarshal(line, &j); err != nil || j.ID == "" {
			return false
		}
		if prev, seen := s.jobs[j.ID]; !seen {
			order = append(order, j.ID)
		} else if len(j.Config) == 0 {
			j.Config = prev.Config
		}
		s.jobs[j.ID] = &j
		if seq, ok := seqOf(j.ID); ok && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	s.log, s.skipped = log, skipped
	// Interrupted work — anything not terminal — goes back to the queue.
	// The requeue is journaled so the file reflects what the daemon will
	// actually do, even if it is killed again before the job starts.
	for _, id := range order {
		j := s.jobs[id]
		if j.State.Terminal() {
			continue
		}
		j.State = StateQueued
		j.Progress = Progress{}
		s.journal(*j)
		s.requeued = append(s.requeued, id)
	}
	return s, nil
}

// seqOf extracts the numeric sequence from an ID like "j000042-ab12…".
func seqOf(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	num, _, _ := strings.Cut(id[1:], "-")
	seq, err := strconv.ParseUint(num, 10, 64)
	return seq, err == nil
}

// Requeued lists the jobs reset to queued during open, in submission
// order.
func (s *Store) Requeued() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.requeued...)
}

// Skipped reports how many unparseable journal lines open dropped.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// NewJob creates and journals a job for the given config hash, client
// and canonical config bytes, returning a copy. The job is queued, or,
// when cached is set, born done and served from the result cache: one
// journal line either way. A job whose config bytes equal those last
// stored under the same hash shares their backing array; the bytes are
// compared because Config.Hash leaves out Guards, which the canonical
// encoding keeps.
func (s *Store) NewJob(hash, client string, cfg json.RawMessage, cached bool) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.configs[hash]; ok && bytes.Equal(prev, cfg) {
		cfg = prev
	} else {
		s.configs[hash] = cfg
	}
	short := hash
	if len(short) > 12 {
		short = short[:12]
	}
	j := &Job{
		ID:     fmt.Sprintf("j%06d-%s", s.nextSeq, short),
		Hash:   hash,
		Client: client,
		State:  StateQueued,
		Cached: cached,
		Config: cfg,
	}
	if cached {
		j.State = StateDone
	}
	s.nextSeq++
	s.jobs[j.ID] = j
	s.log.Append(*j)
	return *j
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Len reports how many jobs the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Transition applies mutate to the job under the store lock, journals
// the new snapshot (config left out), and returns a copy.
func (s *Store) Transition(id string, mutate func(*Job)) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	mutate(j)
	s.journal(*j)
	return *j, true
}

// journal appends a transition line: the job's snapshot without its
// config, which its first line already carries.
func (s *Store) journal(j Job) {
	j.Config = nil
	s.log.Append(j)
}

// SetProgress updates a job's progress snapshot in memory only.
// Progress is advisory and refreshed every few hundred milliseconds of
// wall time; journaling each tick would bloat the file for data that is
// worthless after a restart.
func (s *Store) SetProgress(id string, p Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		j.Progress = p
	}
}

// Close closes the journal, returning any latched write error so a
// truncated journal is never mistaken for a healthy one.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
