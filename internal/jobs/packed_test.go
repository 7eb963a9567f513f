package jobs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPackedResultRoundTrip(t *testing.T) {
	for _, raw := range []string{
		``,
		`{}`,
		`{"flows":[` + strings.Repeat(`{"throughput_bps":340277.2,"retransmissions":1},`, 200) + `{}]}`,
	} {
		p := packResult(json.RawMessage(raw))
		if got := p.unpack(); string(got) != raw || cap(got) != len(raw) {
			t.Fatalf("round trip of %d bytes gave %d bytes (cap %d)", len(raw), len(got), cap(got))
		}
	}
}

// TestDaemonKeepsResultsPacked runs one job and one cache hit of it: the
// store and the cache share one packed copy, smaller than the result,
// and every path that hands the result out — the result endpoint, a
// store copy, a reopened store — gives back exactly the run's bytes.
func TestDaemonKeepsResultsPacked(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1})
	cfg := chainConfig(t, 2, time.Second, 3)
	first, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(ctx, first.ID, 10*time.Millisecond); err != nil {
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
	if !bytes.Equal(hit.Result, want) {
		t.Fatal("the cache hit's result differs from the run's")
	}

	srv.store.mu.Lock()
	pa, pb := srv.store.results[first.ID], srv.store.results[hit.ID]
	rec := srv.store.jobs[first.ID].Result
	srv.store.mu.Unlock()
	cached, _ := srv.cache.lookup(first.Hash)
	if rec != nil {
		t.Fatal("the store record keeps the unpacked result")
	}
	if len(pa) == 0 || &pa[0] != &pb[0] || &pa[0] != &cached[0] {
		t.Fatal("the run's job, the hit's job and the cache keep separate packed copies")
	}
	if len(pa) >= len(want) {
		t.Fatalf("packed result is %d bytes for a %d-byte result", len(pa), len(want))
	}
	if st := srv.cache.Stats(); st.Bytes != int64(len(want)) {
		t.Fatalf("cache counts %d bytes, want the unpacked %d", st.Bytes, len(want))
	}

	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	j := s.NewJob(first.Hash, "c", first.Config)
	if got, _ := s.Done(j.ID, pa, false); !bytes.Equal(got.Result, want) {
		t.Fatal("Done returned other bytes")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Get(j.ID); got.State != StateDone || !bytes.Equal(got.Result, want) {
		t.Fatal("the reopened store serves other bytes")
	}
	if list := s2.List(); len(list) != 1 || list[0].Result != nil {
		t.Fatal("List carries result bytes")
	}
}
