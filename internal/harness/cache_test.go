package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openCache(t *testing.T, path string) *Cache {
	t.Helper()
	c, err := OpenCache(path, CacheLimit{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestJournalRoundTrip: a sweep's store reopens with every result it
// was given, byte for byte.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	c := openCache(t, path)
	c.Put("a", json.RawMessage(`{"x":1}`))
	c.Put("b", json.RawMessage(`{"y":[2,3]}`))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := openCache(t, path)
	if r.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", r.Len())
	}
	for key, want := range map[string]string{"a": `{"x":1}`, "b": `{"y":[2,3]}`} {
		if got, ok := r.Get(key); !ok || string(got) != want {
			t.Fatalf("entry %s = %s (found %v), want %s", key, got, ok, want)
		}
	}
}

// TestJournalTruncatedLine: a kill mid-write leaves a partial final
// line; the load must skip it and keep the complete entries, and the
// next result stored must not be glued onto the partial line.
func TestJournalTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	content := `{"key":"done","ok":true,"value":1}` + "\n" + `{"key":"half","ok":tr`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, path)
	if c.Len() != 1 || !c.Has("done") {
		t.Fatalf("entries=%d, want the one complete entry", c.Len())
	}
	c.Put("after", json.RawMessage(`2`))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := openCache(t, path)
	if r.Len() != 2 || !r.Has("done") || !r.Has("after") {
		t.Fatalf("after reopen: %d entries, want done and after", r.Len())
	}
}

// TestCacheKeepsResultsPacked: the store holds each result deflated,
// in fewer bytes than the result, while Stats counts the result's own
// size and Get returns exactly the bytes stored.
func TestCacheKeepsResultsPacked(t *testing.T) {
	raw := json.RawMessage(`{"flows":[` + strings.Repeat(`{"throughput_bps":340277.2,"retransmissions":1},`, 200) + `{}]}`)
	c := openCache(t, filepath.Join(t.TempDir(), "cache.jsonl"))
	c.Put("h", raw)
	packed, ok := c.lookup("h")
	if !ok || string(packed.unpack()) != string(raw) {
		t.Fatal("the store does not hold the result")
	}
	if len(packed) >= len(raw) {
		t.Fatalf("packed result is %d bytes for a %d-byte result", len(packed), len(raw))
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != int64(len(raw)) {
		t.Fatalf("stats %+v, want one entry of the unpacked %d bytes", st, len(raw))
	}
}
