package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"muzha/internal/scenario"
)

func postScenario(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestScenarioEndpointRunsAndCaches(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const body = `{"scenario": {
		"name": "endpoint-smoke",
		"seed": 5,
		"duration_ms": 2000,
		"topology": {"kind": "chain", "hops": 2},
		"flows": [{"src": 0, "dst": 2, "variant": "muzha"}],
		"stack": {}
	}}`
	resp, out := postScenario(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %d %s", resp.StatusCode, out)
	}
	var sj ScenarioJob
	if err := json.Unmarshal(out, &sj); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if sj.SpecHash == "" || !strings.Contains(sj.Summary, "chain-2hop") {
		t.Fatalf("scenario identity missing: hash=%q summary=%q", sj.SpecHash, sj.Summary)
	}

	j, err := cli.Stream(ctx, sj.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("scenario job ended %s [%s]: %s", j.State, j.Class, j.Error)
	}

	// The identical spec — with reordered keys — must land on the result
	// cache: same deterministic Config, same hash.
	reordered := `{"scenario": {
		"stack": {},
		"flows": [{"variant": "muzha", "dst": 2, "src": 0}],
		"topology": {"hops": 2, "kind": "chain"},
		"duration_ms": 2000,
		"seed": 5,
		"name": "endpoint-smoke"
	}}`
	resp2, out2 := postScenario(t, ts.URL, reordered)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: %d %s", resp2.StatusCode, out2)
	}
	var sj2 ScenarioJob
	if err := json.Unmarshal(out2, &sj2); err != nil {
		t.Fatal(err)
	}
	if !sj2.Cached || sj2.State != StateDone {
		t.Fatalf("reordered duplicate = state %s cached %v, want done from cache", sj2.State, sj2.Cached)
	}
	if sj2.SpecHash != sj.SpecHash {
		t.Fatalf("key order changed the spec hash: %s vs %s", sj2.SpecHash, sj.SpecHash)
	}
	if st := srv.Snapshot(); st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 cache hit", st)
	}

	// The spec's Config sent to /v1/jobs is the same cache entry: every
	// submit endpoint prepares a config the same way.
	var req struct{ Scenario json.RawMessage }
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(req.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	viaJobs, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !viaJobs.Cached || viaJobs.Hash != sj.Hash || !bytes.Equal(viaJobs.Config, sj.Config) {
		t.Fatalf("/v1/jobs with the spec's config: cached %v, hash %.12s vs %.12s", viaJobs.Cached, viaJobs.Hash, sj.Hash)
	}
}

func TestScenarioEndpointRejectsBadSpecs(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string]string{
		"missing scenario field": `{}`,
		"unknown spec field":     `{"scenario": {"seed": 1, "topolgy": {"kind": "chain", "hops": 2}}}`,
		"invalid config":         `{"scenario": {"seed": 1, "topology": {"kind": "chain", "hops": 2}, "flows": []}}`,
	}
	for name, body := range cases {
		resp, out := postScenario(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", name, resp.StatusCode, out)
		}
	}
	// The typo must be named in the error payload.
	resp, out := postScenario(t, ts.URL, `{"scenario": {"seed": 1, "topolgy": {"kind": "chain"}}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "topolgy") {
		t.Fatalf("unknown-field error does not name the field: %d %s", resp.StatusCode, out)
	}
}
