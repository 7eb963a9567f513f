package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreLifecycleAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	a := s.NewJob("aaaa1111bbbb2222", "alice", json.RawMessage(`{"x":1}`), false)
	b := s.NewJob("cccc3333dddd4444", "bob", json.RawMessage(`{"x":2}`), false)
	if a.ID == b.ID {
		t.Fatalf("duplicate IDs: %s", a.ID)
	}
	if a.State != StateQueued {
		t.Fatalf("new job state = %s", a.State)
	}
	if _, ok := s.Transition(a.ID, func(j *Job) { j.State = StateDone }); !ok {
		t.Fatal("transition missed the job")
	}
	s.SetProgress(b.ID, Progress{SimTimeNs: 5, Events: 9})
	if got, _ := s.Get(b.ID); got.Progress.Events != 9 {
		t.Fatalf("progress = %+v", got.Progress)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload: last snapshot wins; the done job stays done, the queued one
	// is re-queued (it already was queued — progress is reset, not kept,
	// since in-memory progress is worthless after a restart).
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ga, _ := s2.Get(a.ID)
	if ga.State != StateDone {
		t.Fatalf("done job reloaded as %+v", ga)
	}
	gb, _ := s2.Get(b.ID)
	if gb.State != StateQueued || gb.Progress.Events != 0 {
		t.Fatalf("queued job reloaded as %+v", gb)
	}
	req := s2.Requeued()
	if len(req) != 1 || req[0] != b.ID {
		t.Fatalf("requeued = %v, want [%s]", req, b.ID)
	}
	// New IDs must continue past every journaled sequence number.
	c := s2.NewJob("eeee5555ffff6666", "carol", json.RawMessage(`{}`), false)
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("reloaded store reused ID %s", c.ID)
	}
	if n := s2.Len(); n != 3 {
		t.Fatalf("reloaded store holds %d jobs, want 3", n)
	}
}

func TestStoreRecoversRunningJobAndSkipsTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	running := Job{
		ID:       "j000003-ab12cd34ef56",
		Hash:     "ab12cd34ef56aa",
		Client:   "crash",
		State:    StateRunning,
		Config:   json.RawMessage(`{"seed":7}`),
		Progress: Progress{SimTimeNs: 123, Events: 456},
	}
	line, err := json.Marshal(running)
	if err != nil {
		t.Fatal(err)
	}
	// A SIGKILL mid-append leaves a half-written final line.
	blob := append(line, '\n')
	blob = append(blob, []byte(`{"id":"j000004-trunc`)...)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1 (the truncated line)", s.Skipped())
	}
	req := s.Requeued()
	if len(req) != 1 || req[0] != running.ID {
		t.Fatalf("requeued = %v", req)
	}
	j, ok := s.Get(running.ID)
	if !ok || j.State != StateQueued || j.Progress != (Progress{}) {
		t.Fatalf("recovered job = %+v, want queued with zero progress", j)
	}
	if string(j.Config) != `{"seed":7}` {
		t.Fatalf("config lost: %s", j.Config)
	}
	// Sequence numbering resumes past the crashed job's ID.
	if n := s.NewJob("ffff", "x", nil, false); n.ID <= running.ID {
		t.Fatalf("new ID %s does not advance past %s", n.ID, running.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The requeue itself was journaled: a second crash-free reopen sees
	// the job queued again, not running.
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2, _ := s2.Get(running.ID)
	if j2.State != StateQueued {
		t.Fatalf("second reopen state = %s", j2.State)
	}

	// A journal written by an older daemon whose Job records carried a
	// "worker" field, or a done job's "result", still opens cleanly: the
	// unknown fields are ignored, not counted as bad lines, and the
	// interrupted job is requeued.
	legacyPath := filepath.Join(t.TempDir(), "jobs.jsonl")
	legacy := `{"id":"j000004-ab12cd34ef56","hash":"ab12cd34ef56aa","state":"done","result":{"events":3}}` + "\n" +
		`{"id":"j000005-cd34ef56ab12","hash":"cd34ef56ab12bb","client":"old",` +
		`"state":"running","worker":"w1","config":{"seed":8},` +
		`"progress":{"sim_time_ns":9,"events":10}}` + "\n"
	if err := os.WriteFile(legacyPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Skipped() != 0 {
		t.Fatalf("legacy journal: skipped = %d, want 0", s3.Skipped())
	}
	if req := s3.Requeued(); len(req) != 1 || req[0] != "j000005-cd34ef56ab12" {
		t.Fatalf("legacy journal: requeued = %v", req)
	}
	if j, ok := s3.Get("j000004-ab12cd34ef56"); !ok || j.State != StateDone {
		t.Fatalf("legacy done job recovered as %+v", j)
	}
	j3, _ := s3.Get("j000005-cd34ef56ab12")
	if j3.State != StateQueued || j3.Progress != (Progress{}) || string(j3.Config) != `{"seed":8}` {
		t.Fatalf("legacy job recovered as %+v", j3)
	}
}

// TestStoreKeepsJobSubmittedAfterTruncatedLine: with nothing to
// requeue, the first record written after a crash is a new submission;
// it must not be glued onto the half-written line and vanish on the
// next restart.
func TestStoreKeepsJobSubmittedAfterTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	done, err := json.Marshal(Job{ID: "j000000-0123456789ab", Hash: "0123456789abcd", State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	blob := append(done, '\n')
	blob = append(blob, []byte(`{"id":"j000001-trunc`)...)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Requeued()) != 0 || s.Skipped() != 1 {
		t.Fatalf("requeued=%v skipped=%d, want none / 1", s.Requeued(), s.Skipped())
	}
	n := s.NewJob("abcdef", "after-crash", json.RawMessage(`{}`), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if j, ok := s2.Get(n.ID); !ok || j.Client != "after-crash" {
		t.Fatalf("job %s submitted after the crash lost on restart (found=%v)", n.ID, ok)
	}
	if s2.Skipped() != 1 {
		t.Fatalf("skipped = %d, want only the truncated line", s2.Skipped())
	}
}

// TestStoreCacheHitIsOneDoneLine: a cache hit is journaled once, born
// done and cached. A journal that ends on such a line reopens with the
// job done, nothing requeued and nothing skipped.
func TestStoreCacheHitIsOneDoneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := json.RawMessage(`{"x":1}`)
	run := s.NewJob("aaaa1111bbbb2222", "alice", cfg, false)
	s.Transition(run.ID, func(j *Job) { j.State = StateDone })
	hit := s.NewJob("aaaa1111bbbb2222", "bob", cfg, true)
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("cache-hit job born as %+v", hit)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(blob, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3 (queued, done, hit):\n%s", len(lines), blob)
	}
	var last Job
	if err := json.Unmarshal(lines[2], &last); err != nil || last.ID != hit.ID || last.State != StateDone || !last.Cached {
		t.Fatalf("last journal line %s (err %v), want the hit, done and cached", lines[2], err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if j, _ := s2.Get(hit.ID); j.State != StateDone || !j.Cached {
		t.Fatalf("cache-hit job reloaded as %+v", j)
	}
	if len(s2.Requeued()) != 0 || s2.Skipped() != 0 {
		t.Fatalf("requeued=%v skipped=%d, want none / 0", s2.Requeued(), s2.Skipped())
	}
}
