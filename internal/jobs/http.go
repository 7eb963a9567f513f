package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"muzha"
)

// API shape (all JSON):
//
//	POST /v1/jobs            {"config": <muzha.Config>} -> Job (200 cached/coalesced, 202 queued)
//	GET  /v1/jobs/{id}       -> Job
//	GET  /v1/jobs/{id}/result -> raw canonical Result bytes (409 until done, 410 once evicted)
//	GET  /v1/jobs/{id}/stream -> SSE: "progress" events, then one "done" event carrying the Job
//	GET  /v1/stats           -> Stats
//	GET  /v1/healthz         -> {"ok": true}
//
// POST /v1/jobs is the one way in: a scenario spec or a sweep reaches
// the daemon as the Configs its client compiles from it, one request
// per Config. A Job is metadata only. Its Result lives once, in the
// result cache under the job's hash, and /result serves the cache's
// bytes; when the cache's caps have evicted it, /result answers 410
// and resubmitting the config recomputes it.
//
// Backpressure: a config that needs a new run and does not fit the
// queue or the client's limit gets 429 with a Retry-After header, and
// 503 on a draining daemon. A cache hit or a coalesced duplicate is
// always served. Errors are {"error": "..."}.

// maxBodyBytes bounds a submission body, far above any one config.
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
		Config *muzha.Config `json:"config"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Config == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`body needs a "config" field`))
		return
	}
	p, err := prepare(*req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	j, status, err := s.admitLocked(p, clientOf(r))
	s.mu.Unlock()
	if err != nil {
		w.Header().Set("Retry-After", s.RetryHint())
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, j)
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
		res, ok := s.cache.Get(j.Hash)
		if !ok {
			writeError(w, http.StatusGone, fmt.Errorf(
				"result evicted from the cache by its entry or byte cap; resubmit the config to recompute it"))
			return
		}
		// The cache's bytes, untouched: this is the byte-identity
		// guarantee clients can diff against. The explicit Content-Length
		// lets clients detect a connection cut mid-download.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(res)))
		w.WriteHeader(http.StatusOK)
		w.Write(res)
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

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
