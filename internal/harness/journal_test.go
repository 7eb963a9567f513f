package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(Entry{Key: "a", OK: true, Value: json.RawMessage(`{"x":1}`)})
	j.Record(Entry{Key: "b", OK: false, Class: string(ClassLivelock), Err: "stuck"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 || j2.Skipped() != 0 {
		t.Fatalf("reloaded %d entries, %d skipped", j2.Len(), j2.Skipped())
	}
	a, ok := j2.Lookup("a")
	if !ok || !a.OK || string(a.Value) != `{"x":1}` {
		t.Fatalf("entry a = %+v", a)
	}
	b, ok := j2.Lookup("b")
	if !ok || b.OK || b.Class != string(ClassLivelock) {
		t.Fatalf("entry b = %+v", b)
	}
}

// TestJournalTruncatedLine: a kill mid-write leaves a partial final
// line; the load must skip it and keep the complete entries.
func TestJournalTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	full, _ := json.Marshal(Entry{Key: "done", OK: true, Value: json.RawMessage(`1`)})
	content := append(full, '\n')
	content = append(content, []byte(`{"key":"half","ok":tr`)...) // truncated
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || j.Skipped() != 1 {
		t.Fatalf("entries=%d skipped=%d", j.Len(), j.Skipped())
	}
	if _, ok := j.Lookup("done"); !ok {
		t.Fatal("complete entry lost")
	}
	// The resumed sweep's first record must not be glued onto the
	// partial line and lost on the next reload.
	j.Record(Entry{Key: "after", OK: true, Value: json.RawMessage(`2`)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 || j2.Skipped() != 1 {
		t.Fatalf("after reopen: entries=%d skipped=%d, want 2 / 1", j2.Len(), j2.Skipped())
	}
	if _, ok := j2.Lookup("after"); !ok {
		t.Fatal("record appended after the truncated line was lost")
	}
}

// TestExecuteResumesFromJournal: re-executing the same jobs against the
// same journal must not re-run completed work, and failed entries keep
// their classification across the restart.
func TestExecuteResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ran := map[string]int{}
	mkJobs := func() []Job {
		return []Job{
			{Key: "ok-job", Fn: func() (any, error) { ran["ok-job"]++; return 42, nil }},
			{Key: "bad-job", Fn: func() (any, error) {
				ran["bad-job"]++
				return nil, fmt.Errorf("always: %w", ErrEventBudget)
			}},
		}
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := Execute(mkJobs(), Options{Workers: 1, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[1].Class != ClassEventBudget {
		t.Fatalf("first pass outcomes %+v", outs)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	outs2, sum := Execute(mkJobs(), Options{Workers: 1, Journal: j2})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if ran["ok-job"] != 1 || ran["bad-job"] != 1 {
		t.Fatalf("journaled jobs re-ran: %v", ran)
	}
	if !outs2[0].Resumed || !outs2[1].Resumed || sum.Resumed != 2 {
		t.Fatalf("resume not reported: %+v %+v", outs2, sum)
	}
	var v int
	if err := json.Unmarshal(outs2[0].Raw, &v); err != nil || v != 42 {
		t.Fatalf("resumed value %s (%v)", outs2[0].Raw, err)
	}
	if !errors.Is(outs2[1].Err, ErrEventBudget) || outs2[1].Class != ClassEventBudget {
		t.Fatalf("resumed failure lost its class: %+v", outs2[1])
	}
}
