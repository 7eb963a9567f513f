package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muzha"
	"muzha/internal/harness"
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
	j1, err = cli.Stream(ctx, j1.ID, nil)
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
	if cap(r1) != len(r1) {
		t.Fatalf("result holds %d bytes in a %d-byte buffer, want no slack", len(r1), cap(r1))
	}

	// ...and identical to an uninterrupted local run through the shared
	// encoder. The daemon arms default guards; a completed run is
	// bit-for-bit identical with or without them.
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := muzha.EncodeResult(res)
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

// TestCrashRecoveryRequeuesAndMatchesUninterruptedRun forges the journal
// a SIGKILLed daemon leaves behind, a job caught mid-run plus a
// half-written trailing line, in both journal shapes: an older daemon's,
// with the config on the running line, and this one's, where only the
// queued line before it carries the config. Either way the job is
// requeued with its config and runs to the bytes of an uninterrupted
// run, and no journal line past a job's first repeats its config.
func TestCrashRecoveryRequeuesAndMatchesUninterruptedRun(t *testing.T) {
	ctx := testCtx(t)
	cfg := chainConfig(t, 2, 2*time.Second, 7)
	canonical, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.Hash()
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
	queued := Job{ID: "j000000-" + hash[:12], Hash: hash, Client: "crash", State: StateQueued, Config: canonical}
	running := queued
	running.State = StateRunning
	metaOnly := running
	metaOnly.Config = nil
	for name, forged := range map[string][]Job{
		"config-every-line": {running},
		"config-once":       {queued, metaOnly},
	} {
		dir := t.TempDir()
		var blob []byte
		for _, j := range forged {
			line, err := json.Marshal(j)
			if err != nil {
				t.Fatal(err)
			}
			blob = append(append(blob, line...), '\n')
		}
		blob = append(blob, []byte(`{"id":"j000001-hal`)...)
		journal := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(journal, blob, 0o644); err != nil {
			t.Fatal(err)
		}

		srv, cli := newTestServer(t, ServerConfig{DataDir: dir})
		if st := srv.Snapshot(); st.Requeued != 1 {
			t.Fatalf("%s: requeued = %d, want 1", name, st.Requeued)
		}
		j, err := cli.Stream(ctx, queued.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone || !bytes.Equal(j.Config, canonical) {
			t.Fatalf("%s: recovered job ended %s [%s] %s with config %.80s", name, j.State, j.Class, j.Error, j.Config)
		}
		got, err := cli.Result(ctx, queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered run differs from the uninterrupted run", name)
		}

		written, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		// The forged lines, the torn tail, then the requeue, running and
		// done lines this daemon wrote.
		lines := strings.Split(string(written), "\n")
		ours := lines[len(forged)+1:]
		if len(ours) < 3 {
			t.Fatalf("%s: daemon journaled %d lines, want requeue, running, done:\n%s", name, len(ours), written)
		}
		for _, line := range ours {
			if line != "" && hasKey(t, []byte(line), "config") {
				t.Fatalf("%s: a transition line repeats the config: %.120s", name, line)
			}
		}
	}
}

// TestCacheHitJobsShareConfigBytes: repeated submissions of one config
// keep one copy of its canonical bytes, but a config that differs only
// in a field Config.Hash leaves out keeps its own.
func TestCacheHitJobsShareConfigBytes(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	cfg := chainConfig(t, 2, time.Second, 5)
	first, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stream(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}
	guarded := cfg
	guarded.Guards.MaxEvents = 1 << 40
	var ids []string
	for _, c := range []muzha.Config{cfg, cfg, guarded} {
		j, err := cli.Submit(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Cached {
			t.Fatalf("submission %d missed the cache", len(ids))
		}
		ids = append(ids, j.ID)
	}
	stored := func(id string) json.RawMessage {
		j, ok := srv.store.Get(id)
		if !ok {
			t.Fatalf("job %s missing from the store", id)
		}
		return j.Config
	}
	a, b, g := stored(ids[0]), stored(ids[1]), stored(ids[2])
	if !bytes.Equal(a, b) || &a[0] != &b[0] {
		t.Fatal("two identical submissions keep separate config copies")
	}
	if bytes.Equal(a, g) || &a[0] == &g[0] {
		t.Fatal("a config differing only in Guards shares another config's bytes")
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

// TestSweepResultsMatchLocalRuns: every result of a sweep submitted
// one config at a time is the byte-exact canonical encoding of the
// same config run in-process.
func TestSweepResultsMatchLocalRuns(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{Workers: 2})
	cfgs := []muzha.Config{
		chainConfig(t, 2, time.Second, 21),
		chainConfig(t, 3, time.Second, 22),
		chainConfig(t, 4, time.Second, 23),
	}
	submitted := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		j, err := cli.Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		submitted[i] = j
	}
	for i, cfg := range cfgs {
		j, err := cli.Stream(ctx, submitted[i].ID, nil)
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
		want, err := muzha.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("config %d: daemon result differs from local run:\ndaemon: %.120s\nlocal: %.120s", i, got, want)
		}
	}
}

func TestStreamDeliversProgressAndDone(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{})
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
	// Each of these would fail only once its run started if admission
	// did not refuse it.
	for name, mutate := range map[string]func(*muzha.Config){
		"flow endpoint out of range": func(c *muzha.Config) { c.Flows[0].Dst = 99 },
		"non-ascending DRAI thresholds": func(c *muzha.Config) {
			th := append([]float64(nil), c.DRAI.Thresholds...)
			th[0], th[1] = th[1], th[0]
			c.DRAI.Thresholds = th
		},
		"zero-area mobility field": func(c *muzha.Config) {
			c.Mobility = &muzha.Mobility{Width: 0, Height: 100, MinSpeed: 1, MaxSpeed: 2, MobileNodes: []int{1}}
		},
		"mobility max speed below min": func(c *muzha.Config) {
			c.Mobility = &muzha.Mobility{Width: 100, Height: 100, MinSpeed: 3, MaxSpeed: 2, MobileNodes: []int{1}}
		},
		"mobile node out of range": func(c *muzha.Config) {
			c.Mobility = &muzha.Mobility{Width: 100, Height: 100, MinSpeed: 1, MaxSpeed: 2, MobileNodes: []int{7}}
		},
	} {
		bad := chainConfig(t, 2, time.Second, 1)
		mutate(&bad)
		_, err := cli.Submit(ctx, bad)
		var remote *RemoteError
		if !errors.As(err, &remote) || remote.Status != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want 400", name, err)
		}
	}

	// A config naming an option the wire form does not have is refused
	// too, with the key in the error, rather than run without it.
	wire, err := json.Marshal(chainConfig(t, 2, time.Second, 1))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"config":{"bit_error_rate":0.0001,` + string(wire[1:]) + `}`
	resp, err := http.Post(cli.BaseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bit_error_rate") {
		t.Fatalf("unknown config key: status %d, body %s; want 400 naming the key", resp.StatusCode, msg)
	}
}

// getBody fetches a daemon path and returns the response body.
func getBody(t *testing.T, cli *Client, path string) []byte {
	t.Helper()
	resp, err := http.Get(cli.BaseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hasKey reports whether the JSON object doc has a top-level key.
func hasKey(t *testing.T, doc []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("not a JSON object: %v: %.120s", err, doc)
	}
	_, ok := m[key]
	return ok
}

// TestJobRecordsCarryNoResult: after a cold run and a cache hit, the
// result lives only in the cache. No journal line, job body or SSE done
// event carries it.
func TestJobRecordsCarryNoResult(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	_, cli := newTestServer(t, ServerConfig{DataDir: dir})
	cfg := chainConfig(t, 2, time.Second, 4)
	cold, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stream(ctx, cold.ID, nil); err != nil {
		t.Fatal(err)
	}
	hit, err := cli.Submit(ctx, cfg)
	if err != nil || !hit.Cached {
		t.Fatalf("second submission: cached=%v err=%v", hit.Cached, err)
	}
	for _, id := range []string{cold.ID, hit.ID} {
		if body := getBody(t, cli, "/v1/jobs/"+id); !hasKey(t, body, "state") || hasKey(t, body, "result") {
			t.Fatalf("GET /v1/jobs/%s: %.200s", id, body)
		}
		stream := string(getBody(t, cli, "/v1/jobs/"+id+"/stream"))
		_, done, ok := strings.Cut(stream, "event: done\ndata: ")
		if !ok {
			t.Fatalf("stream of %s has no done event: %.200s", id, stream)
		}
		done, _, _ = strings.Cut(done, "\n")
		if hasKey(t, []byte(done), "result") {
			t.Fatalf("the done event of %s carries the result", id)
		}
	}
	journal, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(journal)), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want a snapshot per transition", len(lines))
	}
	for i, line := range lines {
		if hasKey(t, []byte(line), "result") {
			t.Fatalf("journal line %d carries the result", i)
		}
	}
}

// TestDrainingServesCachedSweep: a draining daemon refuses a new run
// with 503 but serves each config of a finished sweep as a cache hit
// with 200.
func TestDrainingServesCachedSweep(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 2})
	cfgs := []muzha.Config{chainConfig(t, 2, time.Second, 31), chainConfig(t, 3, time.Second, 32)}
	for _, cfg := range cfgs {
		j, err := cli.Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = cli.Stream(ctx, j.ID, nil); err != nil || j.State != StateDone {
			t.Fatalf("job %s ended %s: %v", j.ID, j.State, err)
		}
	}
	srv.Drain(0)

	for i, cfg := range cfgs {
		j, err := cli.Submit(ctx, cfg)
		if err != nil {
			t.Fatalf("config %d: cache hit while draining: %v", i, err)
		}
		if !j.Cached || j.State != StateDone {
			t.Fatalf("config %d: state %s cached %v, want done from cache", i, j.State, j.Cached)
		}
	}
	_, err := cli.Submit(ctx, chainConfig(t, 4, time.Second, 33))
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusServiceUnavailable {
		t.Fatalf("new run while draining: err = %v, want 503", err)
	}
	if st := srv.Snapshot(); st.CacheHits != 2 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 2 hits and no rejection", st)
	}
}

// TestEvictedResultIsGone: once the cache's cap evicts a job's result,
// its result endpoint answers 410 and says so, and resubmitting the
// config recomputes the same bytes.
func TestEvictedResultIsGone(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{CacheLimit: harness.CacheLimit{MaxEntries: 1}})
	run := func(cfg muzha.Config) Job {
		t.Helper()
		j, err := cli.Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = cli.Stream(ctx, j.ID, nil); err != nil || j.State != StateDone {
			t.Fatalf("job ended %s: %v", j.State, err)
		}
		return j
	}
	a := chainConfig(t, 2, time.Second, 41)
	ja := run(a)
	want, err := cli.Result(ctx, ja.ID)
	if err != nil {
		t.Fatal(err)
	}
	run(chainConfig(t, 2, time.Second, 42)) // evicts a's result

	_, err = cli.Result(ctx, ja.ID)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Status != http.StatusGone ||
		!strings.Contains(remote.Msg, "evicted") || !strings.Contains(remote.Msg, "resubmit") {
		t.Fatalf("result of an evicted job: err = %v, want 410 naming the eviction", err)
	}
	again := run(a)
	if again.Cached {
		t.Fatal("resubmission claims a cache hit for an evicted result")
	}
	if got, err := cli.Result(ctx, again.ID); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recomputed result differs from the first (err %v)", err)
	}
}
