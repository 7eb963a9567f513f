package main

import (
	"bytes"
	"flag"
	"fmt"
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
		t.Fatal("-out accepted outside -exp single and -scenario")
	}
	if err := run([]string{"-exp", "throughput", "-remote", "localhost:1"}, &sb); err == nil {
		t.Fatal("-remote accepted with -exp throughput")
	}
	if err := run([]string{"-chaos-cov", "-remote", "localhost:1"}, &sb); err == nil {
		t.Fatal("-remote accepted with -chaos-cov")
	}
}

// newDaemon starts an in-process muzhad and returns its URL and server.
func newDaemon(t *testing.T) (string, *jobs.Server) {
	t.Helper()
	srv, err := jobs.NewServer(jobs.ServerConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
		srv.Close()
	})
	return ts.URL, srv
}

// TestRemoteMatchesLocal runs the same single experiment in-process and
// through a muzhad daemon, expecting identical CSV and an identical -out
// document — the shared canonical encoder is what makes local and
// remote results diffable.
func TestRemoteMatchesLocal(t *testing.T) {
	url, srv := newDaemon(t)

	dir := t.TempDir()
	localOut := filepath.Join(dir, "local.json")
	remoteOut := filepath.Join(dir, "remote.json")
	args := []string{"-exp", "single", "-hops", "2", "-variants", "newreno,muzha", "-duration", "2s", "-seed", "3"}

	var localCSV strings.Builder
	if err := run(append(args, "-out", localOut), &localCSV); err != nil {
		t.Fatal(err)
	}
	var remoteCSV strings.Builder
	if err := run(append(args, "-out", remoteOut, "-remote", url), &remoteCSV); err != nil {
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

// TestScenarioOutMatchesDaemon runs one spec file in-process and
// through a muzhad daemon with -remote: the report and the -out bytes
// must be identical.
func TestScenarioOutMatchesDaemon(t *testing.T) {
	url, _ := newDaemon(t)
	spec := `{"seed": 3, "duration_ms": 2000, "topology": {"kind": "chain", "hops": 3},
		"flows": [{"src": 0, "dst": 3, "variant": "muzha"}], "stack": {"packet_error_rate": 0.01}}`
	dir := t.TempDir()
	specPath := filepath.Join(dir, "s.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2][]byte
	var reports [2]string
	for i, extra := range [][]string{nil, {"-remote", url}} {
		outPath := filepath.Join(dir, fmt.Sprintf("r%d.json", i))
		var sb strings.Builder
		if err := run(append([]string{"-scenario", specPath, "-out", outPath}, extra...), &sb); err != nil {
			t.Fatalf("%v\n%s", err, sb.String())
		}
		b, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		outs[i], reports[i] = b, sb.String()
	}
	if reports[0] != reports[1] {
		t.Fatalf("report differs:\nlocal:\n%s\nremote:\n%s", reports[0], reports[1])
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("-scenario -out (%d bytes) differs from -scenario -remote -out (%d bytes)", len(outs[0]), len(outs[1]))
	}
}

// TestRemoteFailureKeepsExitCode: a run the daemon aborts exits with
// the same triage code as the same run in-process.
func TestRemoteFailureKeepsExitCode(t *testing.T) {
	url, _ := newDaemon(t)
	budget := filepath.Join("..", "..", "internal", "chaoscov", "testdata", "event-budget.json")
	for _, args := range [][]string{
		{"-exp", "single", "-hops", "2", "-variants", "newreno", "-duration", "2s", "-max-events", "1000"},
		{"-scenario", budget},
	} {
		for _, extra := range [][]string{nil, {"-remote", url}} {
			var sb strings.Builder
			err := run(append(append([]string(nil), args...), extra...), &sb)
			if got := codeFor(err); got != exitGuard {
				t.Errorf("run(%q) = %v, exit code %d, want %d\n%s", append(args, extra...), err, got, exitGuard, sb.String())
			}
		}
	}
}
