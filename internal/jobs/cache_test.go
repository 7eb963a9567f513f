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

	"muzha"
	"muzha/internal/harness"
)

// The daemon's result cache is harness.Cache; these tests pin the LRU
// caps and compaction a daemon configures with -cache-max-entries and
// -cache-max-bytes.

func openTestCache(t *testing.T, path string, limit harness.CacheLimit) *harness.Cache {
	t.Helper()
	c, err := harness.OpenCache(path, limit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func val(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))
}

func TestCacheEvictsLRUByEntryCap(t *testing.T) {
	c := openTestCache(t, filepath.Join(t.TempDir(), "cache.jsonl"), harness.CacheLimit{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("h%d", i), val(i))
	}
	// Touch h0 so h1 becomes the least recently used.
	if _, ok := c.Get("h0"); !ok {
		t.Fatal("h0 missing before eviction")
	}
	c.Put("h3", val(3))
	if _, ok := c.Get("h1"); ok {
		t.Fatal("least-recently-used entry h1 survived the cap")
	}
	for _, h := range []string{"h0", "h2", "h3"} {
		if _, ok := c.Get(h); !ok {
			t.Fatalf("%s evicted out of LRU order", h)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.MaxEntries != 3 {
		t.Fatalf("stats = %+v, want 3 entries / 1 eviction", st)
	}
}

func TestCacheEvictsByByteCap(t *testing.T) {
	c := openTestCache(t, filepath.Join(t.TempDir(), "cache.jsonl"), harness.CacheLimit{MaxBytes: 24})
	c.Put("a", val(1)) // 7 bytes
	c.Put("b", val(2))
	c.Put("c", val(3))
	if c.Len() != 3 {
		t.Fatalf("3 small entries should fit: len=%d", c.Len())
	}
	c.Put("d", val(4)) // 28 bytes total: evict "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte cap did not evict the oldest entry")
	}
	if st := c.Stats(); st.Bytes > 24 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want <=24 bytes / 1 eviction", st)
	}
	// An entry larger than the whole cap still caches (never evict the
	// entry just inserted) and pushes everything else out.
	big := json.RawMessage(`{"v":"` + string(make([]byte, 64)) + `"}`)
	c.Put("huge", big)
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry was evicted on insert")
	}
	if c.Len() != 1 {
		t.Fatalf("oversized insert left %d entries, want 1", c.Len())
	}
}

func TestCacheCompactsDeadWeightOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c := openTestCache(t, path, harness.CacheLimit{MaxEntries: 2})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("h%d", i), val(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	r := openTestCache(t, path, harness.CacheLimit{MaxEntries: 2})
	if r.Len() != 2 {
		t.Fatalf("reopened cache has %d entries, want the 2 survivors", r.Len())
	}
	for _, h := range []string{"h8", "h9"} {
		if _, ok := r.Get(h); !ok {
			t.Fatalf("most-recent entry %s lost across reopen", h)
		}
	}
	if st := r.Stats(); st.Evictions != 0 {
		t.Fatalf("reopen counted load-time churn as evictions: %+v", st)
	}
	compacted, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= grown.Size() {
		t.Fatalf("journal not compacted: %d -> %d bytes", grown.Size(), compacted.Size())
	}
}

func TestCacheUnboundedKeepsEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c := openTestCache(t, path, harness.CacheLimit{})
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("h%d", i), val(i))
	}
	if c.Len() != 50 {
		t.Fatalf("unbounded cache evicted: len=%d", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("unbounded cache reports evictions: %+v", st)
	}
}

// TestSweepStoreIsDaemonCache: sweeps and the daemon share one store.
// A daemon started on the store a RunExperiments sweep wrote answers a
// submission of one of the sweep's configs as a cache hit, with the
// bytes a fresh run encodes to.
func TestSweepStoreIsDaemonCache(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	exp, err := muzha.ThroughputVsHops(muzha.ChainSweepConfig{
		Windows:  []int{4},
		Hops:     []int{2, 3},
		Variants: []muzha.Variant{muzha.NewReno},
		Duration: time.Second,
		Seeds:    []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := muzha.SweepOptions{Journal: filepath.Join(dir, "cache.jsonl")}
	if _, err := muzha.RunExperiments([]*muzha.Experiment{exp}, store); err != nil {
		t.Fatal(err)
	}

	_, cli := newTestServer(t, ServerConfig{DataDir: dir, Workers: 1})
	cfg := exp.Cells[1]
	j, err := cli.Submit(ctx, cfg)
	if err != nil || !j.Cached || j.State != StateDone {
		t.Fatalf("submission of a swept config: %+v (err %v), want a cache hit", j, err)
	}
	got, err := cli.Result(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := muzha.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the hit's bytes differ from EncodeResult(Run(cfg))")
	}
}

// TestCacheLoadsEarlierFormats: the store loads the two files it
// replaces. A result cache loads with the same entries; a sweep journal
// loads its successes, and its failure lines are skipped and compacted
// away, so a failed run is run again.
func TestCacheLoadsEarlierFormats(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		want       map[string]string
	}{
		{
			// Canonical Result bytes: sorted keys.
			name: "cache",
			file: `{"key":"h1","ok":true,"value":{"Duration":1000000000,"Events":7}}` + "\n" +
				`{"key":"h2","ok":true,"value":{"Events":9,"Flows":null}}` + "\n",
			want: map[string]string{"h1": `{"Duration":1000000000,"Events":7}`, "h2": `{"Events":9,"Flows":null}`},
		},
		{
			// encoding/json Result bytes (field order), and a failure.
			name: "journal",
			file: `{"key":"h1","ok":true,"value":{"Flows":null,"Events":7}}` + "\n" +
				`{"key":"h2","ok":false,"class":"deadline","err":"wall-clock deadline exceeded"}` + "\n",
			want: map[string]string{"h1": `{"Flows":null,"Events":7}`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.jsonl")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			c := openTestCache(t, path, harness.CacheLimit{})
			if c.Len() != len(tc.want) {
				t.Fatalf("loaded %d entries, want %d", c.Len(), len(tc.want))
			}
			for key, want := range tc.want {
				if got, ok := c.Get(key); !ok || string(got) != want {
					t.Fatalf("entry %s = %s (found %v), want %s", key, got, ok, want)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(b), `"ok":false`) {
				t.Fatalf("a failure line survived the open:\n%s", b)
			}
		})
	}
}
