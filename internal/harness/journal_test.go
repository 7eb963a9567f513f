package harness

import (
	"encoding/json"
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
