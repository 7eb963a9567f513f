package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzha/internal/jobs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from current output")

// TestOutGolden pins the -out document byte-for-byte. The encoding is
// the daemon's canonical Result form, so any drift here would also
// invalidate every muzhad cache entry — regenerate deliberately with
// -update-golden and say why in the commit.
func TestOutGolden(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "result.json")
	var sb strings.Builder
	err := run([]string{"-exp", "single", "-hops", "2", "-variants", "newreno",
		"-duration", "2s", "-seed", "1", "-out", outFile}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "single_out.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-out document drifted from golden (%d vs %d bytes); if intended, regenerate with -update-golden",
			len(got), len(want))
	}
}

func TestOutAndRemoteRequireSingle(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "cwnd", "-out", "x.json"}, &sb); err == nil {
		t.Fatal("-out accepted outside -exp single")
	}
	if err := run([]string{"-chaos-cov", "-remote", "localhost:1"}, &sb); err == nil {
		t.Fatal("-remote accepted with -chaos-cov")
	}
}

// TestRemoteMatchesLocal runs the same single experiment in-process and
// through a muzhad daemon, expecting identical CSV and an identical -out
// document — the shared canonical encoder is what makes local and
// remote results diffable.
func TestRemoteMatchesLocal(t *testing.T) {
	srv, err := jobs.NewServer(jobs.ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain(0)
		srv.Close()
	}()

	dir := t.TempDir()
	localOut := filepath.Join(dir, "local.json")
	remoteOut := filepath.Join(dir, "remote.json")
	args := []string{"-exp", "single", "-hops", "2", "-variants", "newreno,muzha", "-duration", "2s", "-seed", "3"}

	var localCSV strings.Builder
	if err := run(append(args, "-out", localOut), &localCSV); err != nil {
		t.Fatal(err)
	}
	var remoteCSV strings.Builder
	if err := run(append(args, "-out", remoteOut, "-remote", ts.URL), &remoteCSV); err != nil {
		t.Fatal(err)
	}
	if localCSV.String() != remoteCSV.String() {
		t.Fatalf("CSV differs:\nlocal:\n%s\nremote:\n%s", localCSV.String(), remoteCSV.String())
	}
	lb, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(remoteOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, rb) {
		t.Fatal("-out documents differ between local and remote execution")
	}
	if st := srv.Snapshot(); st.Completed != 2 {
		t.Fatalf("daemon ran %d jobs, want 2 (one per variant)", st.Completed)
	}
}

// TestScenarioOutMatchesDaemon runs one spec file in-process with -out
// and submits the same spec to muzhad's /v1/scenarios: the -out file
// must be exactly the result bytes the daemon serves.
func TestScenarioOutMatchesDaemon(t *testing.T) {
	srv, err := jobs.NewServer(jobs.ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain(0)
		srv.Close()
	}()

	spec := `{"seed": 3, "duration_ms": 2000, "topology": {"kind": "chain", "hops": 3},
		"flows": [{"src": 0, "dst": 3, "variant": "muzha"}], "stack": {"packet_error_rate": 0.01}}`
	dir := t.TempDir()
	specPath := filepath.Join(dir, "s.json")
	outPath := filepath.Join(dir, "r.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-scenario", specPath, "-out", outPath}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	local, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(`{"scenario": `+spec+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobs.ScenarioJob
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	cli := &jobs.Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := cli.Stream(ctx, j.ID, nil); err != nil {
		t.Fatal(err)
	}
	served, err := cli.Result(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, served) {
		t.Fatalf("-scenario -out (%d bytes) differs from the daemon's result (%d bytes)", len(local), len(served))
	}
}
