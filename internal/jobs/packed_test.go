package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muzha/internal/harness"
)

// TestPackedResultRoundTrip: a result the cache packs comes back
// byte for byte, in a slice of exactly its length.
func TestPackedResultRoundTrip(t *testing.T) {
	c := openTestCache(t, filepath.Join(t.TempDir(), "cache.jsonl"), harness.CacheLimit{})
	for i, raw := range []string{
		``,
		`{}`,
		`{"flows":[` + strings.Repeat(`{"throughput_bps":340277.2,"retransmissions":1},`, 200) + `{}]}`,
	} {
		key := fmt.Sprint(i)
		c.Put(key, json.RawMessage(raw))
		if got, ok := c.Get(key); !ok || string(got) != raw || cap(got) != len(raw) {
			t.Fatalf("round trip of %d bytes gave %d bytes (cap %d)", len(raw), len(got), cap(got))
		}
	}
}

// TestDaemonKeepsResultsPacked runs one job and one cache hit of it:
// the cache holds the one copy (packed: harness's
// TestCacheKeepsResultsPacked pins that it is smaller than the result),
// and the result endpoint serves exactly the run's bytes for both jobs,
// also from a daemon reopened on a copy of the data directory.
func TestDaemonKeepsResultsPacked(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	srv, cli := newTestServer(t, ServerConfig{DataDir: dir, Workers: 1})
	cfg := chainConfig(t, 2, time.Second, 3)
	first, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stream(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}
	want, err := cli.Result(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := cli.Submit(ctx, cfg)
	if err != nil || !hit.Cached {
		t.Fatalf("second submission: cached=%v err=%v", hit.Cached, err)
	}
	if got, err := cli.Result(ctx, hit.ID); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the cache hit's result differs from the run's (err %v)", err)
	}

	if got, ok := srv.cache.Get(first.Hash); !ok || !bytes.Equal(got, want) {
		t.Fatal("the cache does not hold the run's result")
	}
	if st := srv.cache.Stats(); st.Entries != 1 || st.Bytes != int64(len(want)) {
		t.Fatalf("cache stats %+v, want one entry of the unpacked %d bytes", st, len(want))
	}

	copyDir := t.TempDir()
	for _, name := range []string{"jobs.jsonl", "cache.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, reopened := newTestServer(t, ServerConfig{DataDir: copyDir, Workers: 1})
	for _, id := range []string{first.ID, hit.ID} {
		if got, err := reopened.Result(ctx, id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the reopened daemon serves other bytes for %s (err %v)", id, err)
		}
	}
}
