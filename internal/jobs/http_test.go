package jobs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestAPISurface pins the daemon's routes: the six it serves answer,
// and the removed spec, sweep and listing endpoints do not.
func TestAPISurface(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{})
	cfg, err := json.Marshal(map[string]any{"config": chainConfig(t, 2, time.Second, 51)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(ctx, chainConfig(t, 2, time.Second, 52))
	if err != nil {
		t.Fatal(err)
	}
	if j, err = cli.Stream(ctx, j.ID, nil); err != nil || j.State != StateDone {
		t.Fatalf("job ended %s: %v", j.State, err)
	}
	for _, tt := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/healthz", "", http.StatusOK},
		{"GET", "/v1/stats", "", http.StatusOK},
		{"POST", "/v1/jobs", string(cfg), http.StatusAccepted},
		{"GET", "/v1/jobs/" + j.ID, "", http.StatusOK},
		{"GET", "/v1/jobs/" + j.ID + "/result", "", http.StatusOK},
		{"GET", "/v1/jobs/" + j.ID + "/stream", "", http.StatusOK},
		{"POST", "/v1/scenarios", `{"scenario": {}}`, http.StatusNotFound},
		{"POST", "/v1/sweeps", `{"configs": []}`, http.StatusNotFound},
		{"GET", "/v1/jobs", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequestWithContext(ctx, tt.method, cli.BaseURL+tt.path, strings.NewReader(tt.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Errorf("%s %s = %d, want %d", tt.method, tt.path, resp.StatusCode, tt.want)
		}
	}
}
