package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"muzha"
)

func chainConfig(t *testing.T, hops int, d time.Duration, seed int64) muzha.Config {
	t.Helper()
	top, err := muzha.ChainTopology(hops)
	if err != nil {
		t.Fatal(err)
	}
	cfg := muzha.DefaultConfig()
	cfg.Topology = top
	cfg.Duration = d
	cfg.Seed = seed
	cfg.Flows = []muzha.Flow{{Src: 0, Dst: hops, Variant: muzha.Muzha}}
	return cfg
}

// newTestServer starts a daemon over httptest and returns it plus a
// client. Cleanup drains with zero grace (canceling whatever is still
// running) and closes the journals.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv, &Client{BaseURL: ts.URL, ClientID: "test"}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunAndCacheHitByteIdentical(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	cfg := chainConfig(t, 2, 2*time.Second, 11)

	j1, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	j1, err = cli.Wait(ctx, j1.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != StateDone {
		t.Fatalf("job ended %s [%s]: %s", j1.State, j1.Class, j1.Error)
	}

	// The duplicate must be served from the cache without re-running:
	// born done, flagged Cached, same bytes.
	j2, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.State != StateDone {
		t.Fatalf("duplicate = state %s cached %v, want done from cache", j2.State, j2.Cached)
	}
	if j2.ID == j1.ID {
		t.Fatal("cache hit reused the original job ID")
	}
	r1, err := cli.Result(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Result(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached result differs from the original bytes")
	}

	// ...and identical to an uninterrupted local run through the shared
	// encoder. The daemon arms default guards; a completed run is
	// bit-for-bit identical with or without them.
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, want) {
		t.Fatalf("daemon result differs from local run:\ndaemon: %.120s\n local: %.120s", r1, want)
	}

	st := srv.Snapshot()
	if st.CacheHits != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 completed", st)
	}
}

func TestCrashRecoveryRequeuesAndMatchesUninterruptedRun(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	cfg := chainConfig(t, 2, 2*time.Second, 7)
	canonical, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Forge the journal a SIGKILLed daemon leaves behind: a job caught
	// mid-run plus a half-written trailing line.
	crashed := Job{
		ID:     "j000000-" + hash[:12],
		Hash:   hash,
		Client: "crash",
		State:  StateRunning,
		Config: canonical,
	}
	line, err := json.Marshal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	blob := append(line, '\n')
	blob = append(blob, []byte(`{"id":"j000001-hal`)...)
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, cli := newTestServer(t, ServerConfig{DataDir: dir})
	if st := srv.Snapshot(); st.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", st.Requeued)
	}
	j, err := cli.Wait(ctx, crashed.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("recovered job ended %s [%s]: %s", j.State, j.Class, j.Error)
	}
	got, err := cli.Result(ctx, crashed.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered run differs from the uninterrupted run")
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	// A long scenario occupies the only slot; the drain in cleanup
	// cancels it, so the test never pays for the full simulated hour.
	long := chainConfig(t, 4, time.Hour, 1)
	if _, err := cli.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 2))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want BusyError", err)
	}
	if busy.Status != http.StatusTooManyRequests || busy.RetryAfter < time.Second {
		t.Fatalf("busy = %+v, want 429 with Retry-After >= 1s", busy)
	}
	if st := srv.Snapshot(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestPerClientLimit(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 8, PerClient: 1})
	if _, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 2))
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusTooManyRequests {
		t.Fatalf("same client second submit err = %v, want 429", err)
	}
	// Another client still has room.
	other := &Client{BaseURL: cli.BaseURL, ClientID: "other"}
	if _, err := other.Submit(ctx, chainConfig(t, 4, time.Hour, 3)); err != nil {
		t.Fatalf("other client refused: %v", err)
	}
}

func TestSweepAdmissionIsAtomic(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	// Two fresh configs need two slots; only one exists — nothing may be
	// admitted, or a client could never tell which half of its grid ran.
	_, err := cli.SubmitSweep(ctx, []muzha.Config{
		chainConfig(t, 4, time.Hour, 1),
		chainConfig(t, 4, time.Hour, 2),
	})
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep err = %v, want 429", err)
	}
	if st := srv.Snapshot(); st.Queued+st.Running != 0 {
		t.Fatalf("partial sweep admitted: %+v", st)
	}

	// Duplicates inside one sweep coalesce onto a single slot and job.
	dup := chainConfig(t, 2, time.Second, 3)
	jobsOut, err := cli.SubmitSweep(ctx, []muzha.Config{dup, dup})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobsOut) != 2 || jobsOut[0].ID != jobsOut[1].ID {
		t.Fatalf("sweep duplicates did not coalesce: %+v", jobsOut)
	}
	if _, err := cli.Wait(ctx, jobsOut[0].ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestSweepResultsMatchLocalRuns: every result a sweep serves is the
// byte-exact canonical encoding of the same config run in-process.
func TestSweepResultsMatchLocalRuns(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{Workers: 2})
	cfgs := []muzha.Config{
		chainConfig(t, 2, time.Second, 21),
		chainConfig(t, 3, time.Second, 22),
		chainConfig(t, 4, time.Second, 23),
	}
	jobsOut, err := cli.SubmitSweep(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobsOut) != len(cfgs) {
		t.Fatalf("sweep returned %d jobs for %d configs", len(jobsOut), len(cfgs))
	}
	for i, cfg := range cfgs {
		j, err := cli.Wait(ctx, jobsOut[i].ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("config %d ended %s [%s]: %s", i, j.State, j.Class, j.Error)
		}
		got, err := cli.Result(ctx, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := muzha.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("config %d: sweep result differs from local run:\nsweep: %.120s\nlocal: %.120s", i, got, want)
		}
	}
}

func TestStreamDeliversProgressAndDone(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{ProgressEvery: 512})
	j, err := cli.Submit(ctx, chainConfig(t, 2, 2*time.Second, 5))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	done, err := cli.Stream(ctx, j.ID, func(p Progress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("stream ended with state %s [%s]: %s", done.State, done.Class, done.Error)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress events")
	}
	last := snaps[len(snaps)-1]
	if last.Events == 0 || last.SimTimeNs == 0 {
		t.Fatalf("final progress = %+v, want nonzero", last)
	}
}

func TestDrainCancelsRequeuesAndRefuses(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 2})
	j, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up so the drain has something to
	// cancel.
	for srv.Snapshot().Running == 0 {
		select {
		case <-ctx.Done():
			t.Fatal("job never started")
		case <-time.After(5 * time.Millisecond):
		}
	}
	srv.Drain(10 * time.Millisecond)

	got, ok := srv.store.Get(j.ID)
	if !ok || got.State != StateQueued {
		t.Fatalf("after drain job is %s, want queued for the next start", got.State)
	}
	_, err = cli.Submit(ctx, chainConfig(t, 2, time.Second, 1))
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon err = %v, want 503", err)
	}
}

func TestSubmitRejectsInvalidConfig(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{})
	bad := chainConfig(t, 2, time.Second, 1)
	bad.Flows[0].Dst = 99 // out of range: must be refused at admission
	_, err := cli.Submit(ctx, bad)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}
