package jsonl

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestScan(t *testing.T) {
	// A line far past the scanner's default buffer still scans whole.
	long := `{"v":"` + strings.Repeat("x", 2<<20) + `"}`
	input := strings.Join([]string{
		`{"a":1}`,
		``, // blank lines are skipped silently
		long,
		`{"b":2}`,
		`{"trunc`, // kill-mid-write residue: rejected, counted, not fatal
	}, "\n")
	var got []string
	skipped, err := scan(strings.NewReader(input), func(line []byte) bool {
		if !strings.HasSuffix(string(line), "}") {
			return false
		}
		got = append(got, string(line))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(got) != 3 || got[0] != `{"a":1}` || got[1] != long || got[2] != `{"b":2}` {
		t.Fatalf("got %d lines, want the short ones around the %d-byte one", len(got), len(long))
	}
}

type rec struct {
	K string `json:"k"`
}

// openKeys opens the log at path, collecting the key of every line
// that parses as a rec.
func openKeys(t *testing.T, path string) (*Log, []string, int) {
	t.Helper()
	var keys []string
	l, skipped, err := Open(path, func(line []byte) bool {
		var r rec
		if json.Unmarshal(line, &r) != nil || r.K == "" {
			return false
		}
		keys = append(keys, r.K)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, keys, skipped
}

// TestKillMidWrite covers the files a kill mid-write can leave behind:
// an append after reopening must survive the next reload, and no
// parseable record may be dropped.
func TestKillMidWrite(t *testing.T) {
	for _, tc := range []struct {
		name        string
		content     string
		keys        []string // loaded on the first open
		skipped     int
		skippedNext int // after appending "new" and reopening
	}{
		{"empty", ``, nil, 0, 0},
		{"torn tail", `{"k":"a"}` + "\n" + `{"k":"b`, []string{"a"}, 1, 1},
		{"corrupt middle", `{"k":"a"}` + "\n" + `#garbage` + "\n" + `{"k":"c"}` + "\n", []string{"a", "c"}, 1, 1},
		{"parseable tail without newline", `{"k":"a"}` + "\n" + `{"k":"b"}`, []string{"a", "b"}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			l, keys, skipped := openKeys(t, path)
			if !reflect.DeepEqual(keys, tc.keys) || skipped != tc.skipped {
				t.Fatalf("first open: keys=%v skipped=%d, want %v / %d", keys, skipped, tc.keys, tc.skipped)
			}
			l.Append(rec{K: "new"})
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, keys2, skipped2 := openKeys(t, path)
			defer l2.Close()
			want := append(append([]string(nil), tc.keys...), "new")
			if !reflect.DeepEqual(keys2, want) || skipped2 != tc.skippedNext {
				t.Fatalf("reopen: keys=%v skipped=%d, want %v / %d", keys2, skipped2, want, tc.skippedNext)
			}
		})
	}
}

// TestOpenWithoutAppendLeavesFileAlone: terminating a torn tail is
// deferred to the first append, so a log that is only replayed stays
// byte-identical.
func TestOpenWithoutAppendLeavesFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	content := `{"k":"a"}` + "\n" + `{"k":"b`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, _ := openKeys(t, path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != content {
		t.Fatalf("open without append changed the file: %q", got)
	}
}

func TestAppendErrorLatchesAndSurfacesFromClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, _ := openKeys(t, path)
	l.Append(rec{K: "a"})
	// Swap in a read-only handle so the next write fails.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.f = ro
	l.Append(rec{K: "b"})
	first := l.Err()
	if first == nil {
		t.Fatal("write error not latched")
	}
	l.Append(make(chan int)) // a marshal error must not replace the first
	if !errors.Is(l.Err(), first) {
		t.Fatalf("latched error replaced: %v", l.Err())
	}
	if err := l.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want the latched %v", err, first)
	}
	l2, keys, _ := openKeys(t, path)
	defer l2.Close()
	if !reflect.DeepEqual(keys, []string{"a"}) {
		t.Fatalf("keys = %v, want [a]", keys)
	}
}

func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	content := `{"k":"a"}` + "\n" + `{"k":"b"}` + "\n" + `{"k":"tor`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, _ := openKeys(t, path)

	// A failing emit leaves the old file intact and still the live log.
	boom := errors.New("boom")
	err := l.Rewrite(func(enc *json.Encoder) error {
		if err := enc.Encode(rec{K: "x"}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Rewrite = %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != content {
		t.Fatalf("failed rewrite touched the log: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed rewrite left its temporary file: %v", err)
	}

	// A successful one replaces the contents, and later appends land in
	// the new file.
	if err := l.Rewrite(func(enc *json.Encoder) error { return enc.Encode(rec{K: "b"}) }); err != nil {
		t.Fatal(err)
	}
	l.Append(rec{K: "c"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != `{"k":"b"}`+"\n"+`{"k":"c"}`+"\n" {
		t.Fatalf("rewritten log = %q", got)
	}
}
