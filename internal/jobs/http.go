package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"muzha"
	"muzha/internal/scenario"
)

// API shape (all JSON):
//
//	POST /v1/jobs            {"config": <muzha.Config>}         -> Job (200 cached/coalesced, 202 queued)
//	POST /v1/scenarios       {"scenario": <scenario.Spec>}      -> Job + spec_hash/summary (same statuses)
//	POST /v1/sweeps          {"configs": [<muzha.Config>, ...]} -> {"jobs": [Job, ...]} (atomic admission)
//	GET  /v1/jobs            -> {"jobs": [Job, ...]}
//	GET  /v1/jobs/{id}       -> Job
//	GET  /v1/jobs/{id}/result -> raw canonical Result bytes (409 until done)
//	GET  /v1/jobs/{id}/stream -> SSE: "progress" events, then one "done" event carrying the Job
//	GET  /v1/stats           -> Stats
//	GET  /v1/healthz         -> {"ok": true}
//
// Backpressure: a full queue or an over-limit client gets 429 with a
// Retry-After header; a draining daemon gets 503. Errors are
// {"error": "..."}.

// maxBodyBytes bounds a submission body; a sweep of a few thousand
// configs fits comfortably.
const maxBodyBytes = 32 << 20

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/scenarios", s.handleScenario)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	return mux
}

// clientOf identifies the submitter for per-client limits: the
// X-Muzha-Client header when present, else the remote address.
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Muzha-Client"); c != "" {
		return c
	}
	return r.RemoteAddr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Config json.RawMessage `json:"config"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Config) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`body needs a "config" field`))
		return
	}
	j, status, err := s.submitOne(req.Config, clientOf(r))
	if err != nil {
		s.writeBusyOrError(w, status, err)
		return
	}
	writeJSON(w, status, j)
}

// ScenarioJob is the /v1/scenarios response: the admitted job plus
// the scenario's own identity — its canonical-spec hash and summary —
// so a chaos corpus can correlate daemon jobs back to spec entries.
type ScenarioJob struct {
	Job
	SpecHash string `json:"spec_hash"`
	Summary  string `json:"summary"`
}

// handleScenario admits a declarative scenario spec: strict-parse,
// deterministically generate the Config, then share the /v1/jobs
// admission path — so an identical spec (or an identical Config
// reached any other way) still lands on the cache or coalesces.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Scenario) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`body needs a "scenario" field`))
		return
	}
	spec, err := scenario.Parse(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specHash, err := spec.Hash()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canonical, err := json.Marshal(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, status, err := s.submitOne(canonical, clientOf(r))
	if err != nil {
		s.writeBusyOrError(w, status, err)
		return
	}
	writeJSON(w, status, ScenarioJob{Job: j, SpecHash: specHash, Summary: spec.Summary()})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Configs []json.RawMessage `json:"configs"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`body needs a non-empty "configs" list`))
		return
	}
	client := clientOf(r)

	// Validate and hash everything before taking the lock, then admit
	// atomically: either every new run fits the queue or none is
	// admitted. Partial sweep admission would leave the client guessing
	// which half of its parameter grid exists.
	type item struct {
		hash      string
		canonical json.RawMessage
	}
	items := make([]item, len(req.Configs))
	for i, raw := range req.Configs {
		var cfg muzha.Config
		if err := json.Unmarshal(raw, &cfg); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
		if err := cfg.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
		hash, err := cfg.Hash()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
		canonical, err := json.Marshal(cfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("config %d: %w", i, err))
			return
		}
		items[i] = item{hash: hash, canonical: canonical}
	}

	s.mu.Lock()
	need := 0
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		if _, hit := s.cache.lookup(it.hash); hit {
			continue
		}
		if _, running := s.active[it.hash]; running {
			continue
		}
		if seen[it.hash] {
			continue // duplicate within the sweep coalesces onto one run
		}
		seen[it.hash] = true
		need++
	}
	if s.draining {
		hint := s.retryHintLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", hint)
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("daemon is draining"))
		return
	}
	if s.inFlight+need > s.cfg.QueueDepth {
		s.stats.Rejected++
		free := s.cfg.QueueDepth - s.inFlight
		hint := s.retryHintLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", hint)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("sweep needs %d slots but only %d are free", need, free))
		return
	}
	if s.cfg.PerClient > 0 && s.perClient[client]+need > s.cfg.PerClient {
		s.stats.Rejected++
		left := s.cfg.PerClient - s.perClient[client]
		hint := s.retryHintLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", hint)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("sweep needs %d slots but client %q has only %d left",
				need, client, left))
		return
	}
	out := make([]Job, len(items))
	for i, it := range items {
		j, _, err := s.admitLocked(it.hash, it.canonical, client)
		if err != nil {
			// Capacity was checked above; only an internal error lands
			// here. Report it on the job so the sweep response stays
			// positionally aligned with the request.
			j = Job{State: StateFailed, Hash: it.hash, Error: err.Error()}
		}
		out[i] = j
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string][]Job{"jobs": out})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// Results can be large; the listing carries metadata only (List
	// already leaves out Result).
	list := s.store.List()
	for i := range list {
		list[i].Config = nil
	}
	writeJSON(w, http.StatusOK, map[string][]Job{"jobs": list})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	switch j.State {
	case StateDone:
		// Raw cached/encoded bytes, untouched: this is the byte-identity
		// guarantee clients can diff against. The explicit Content-Length
		// lets clients detect a connection cut mid-download.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(j.Result)))
		w.WriteHeader(http.StatusOK)
		w.Write(j.Result)
	case StateFailed:
		writeError(w, http.StatusConflict, fmt.Errorf("job failed [%s]: %s", j.Class, j.Error))
	default:
		w.Header().Set("Retry-After", s.RetryHint())
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s", j.State))
	}
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.store.Get(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	for {
		s.mu.Lock()
		h := s.hubs[id]
		s.mu.Unlock()
		var wake <-chan struct{}
		if h != nil {
			// Grab the wait channel before reading state so an update
			// between the read and the select still wakes us.
			wake = h.wait()
		}
		j, ok := s.store.Get(id)
		if !ok {
			return
		}
		if err := writeSSE(w, "progress", j.Progress); err != nil {
			return
		}
		fl.Flush()
		if j.State.Terminal() || h == nil {
			// Done, failed, or no longer active (re-queued by a drain):
			// emit the terminal event and end the stream.
			writeSSE(w, "done", j)
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

func writeSSE(w io.Writer, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

func readJSON(r *http.Request, v any) error {
	defer io.Copy(io.Discard, r.Body)
	return json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// writeBusyOrError writes an error response, attaching the live
// Retry-After hint to backpressure statuses.
func (s *Server) writeBusyOrError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.RetryHint())
	}
	writeError(w, status, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
