package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"muzha"
	"muzha/internal/chaoscov"
	"muzha/internal/harness"
)

// ServerConfig tunes the daemon. Zero values take the documented
// defaults.
type ServerConfig struct {
	// DataDir holds jobs.jsonl (the job store) and cache.jsonl (the
	// result cache). Required.
	DataDir string
	// Workers is the simulation worker count (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-unfinished jobs (queued + running).
	// Past it, submissions get 429 with a Retry-After hint — the queue
	// never grows without bound. Default 64.
	QueueDepth int
	// PerClient bounds one client's queued+running jobs (default 16;
	// negative disables the limit).
	PerClient int
	// Guards applies to jobs that carry no guards of their own. The
	// default arms a 5-minute wall clock and the livelock detector so a
	// pathological submission cannot wedge a worker forever.
	Guards muzha.RunGuards
	// ProgressEvery is the progress snapshot period in engine events
	// (default 65536).
	ProgressEvery uint64
	// RunWorkers sets every job's Config.Workers width, overriding the
	// submission's: how many cores one job may use is server policy.
	// The width never changes a Result, so cached results stay valid.
	RunWorkers int
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// CacheLimit bounds the result cache; least-recently-used results
	// are evicted past the caps. Zero fields are unbounded.
	CacheLimit CacheLimit
	// ChaosStats, when non-nil, supplies the chaos block of /v1/stats —
	// a summary of the chaos-corpus journal (muzhad -chaos-corpus).
	ChaosStats func() *chaoscov.Info
}

// Stats is the daemon's /v1/stats payload.
type Stats struct {
	Queued       int    `json:"queued"`
	Running      int    `json:"running"`
	Jobs         int    `json:"jobs"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	// Cache details the result cache's live set, byte footprint, LRU
	// eviction count and configured caps.
	Cache     CacheStats `json:"cache"`
	Coalesced uint64     `json:"coalesced"`
	Rejected  uint64     `json:"rejected"`
	Completed uint64     `json:"completed"`
	Failed    uint64     `json:"failed"`
	Requeued  int        `json:"requeued"`
	Draining  bool       `json:"draining"`
	// Chaos summarizes the chaos corpus when one is configured.
	Chaos *chaoscov.Info `json:"chaos,omitempty"`
}

// Server executes submitted simulation jobs on a harness worker pool,
// serves results, and streams progress. See the package comment for the
// cache contract.
type Server struct {
	cfg        ServerConfig
	store      *Store
	cache      *Cache
	pool       *harness.Pool
	cancel     chan struct{} // closed when the drain grace expires
	cancelOnce sync.Once

	mu        sync.Mutex
	active    map[string]string // config hash -> in-flight job ID
	perClient map[string]int
	hubs      map[string]*hub
	started   map[string]time.Time // execution start, for the mean-duration hint
	meanRun   float64              // EWMA of completed job wall seconds
	inFlight  int                  // queued + running jobs
	draining  bool
	requeued  int
	stats     Stats
}

// NewServer opens the store and cache under cfg.DataDir, re-queues any
// jobs a previous process left unfinished, and starts the worker pool.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("jobs: ServerConfig.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.PerClient == 0 {
		cfg.PerClient = 16
	}
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 1 << 16
	}
	if (cfg.Guards == muzha.RunGuards{}) {
		cfg.Guards = muzha.RunGuards{WallClock: 5 * time.Minute, LivelockWindow: 5_000_000}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	store, err := OpenStore(filepath.Join(cfg.DataDir, "jobs.jsonl"))
	if err != nil {
		return nil, err
	}
	cache, err := OpenCache(filepath.Join(cfg.DataDir, "cache.jsonl"), cfg.CacheLimit)
	if err != nil {
		store.Close()
		return nil, err
	}

	s := &Server{
		cfg:       cfg,
		store:     store,
		cache:     cache,
		cancel:    make(chan struct{}),
		active:    make(map[string]string),
		perClient: make(map[string]int),
		hubs:      make(map[string]*hub),
		started:   make(map[string]time.Time),
	}
	// Admission is the inFlight counter; the pool queues whatever it is
	// given, journal-recovered jobs included.
	s.pool = harness.NewPool(cfg.Workers, harness.Options{})

	s.mu.Lock()
	for _, id := range store.Requeued() {
		j, ok := store.Get(id)
		if !ok {
			continue
		}
		s.enqueueLocked(j)
		s.requeued++
		cfg.Logf("jobs: requeued %s (hash %.12s) from journal", j.ID, j.Hash)
	}
	s.mu.Unlock()
	if n := store.Skipped(); n > 0 {
		cfg.Logf("jobs: store journal: skipped %d unparseable line(s)", n)
	}
	return s, nil
}

// enqueueLocked admits one queued job to the pool. Caller holds s.mu
// and has already performed admission checks.
func (s *Server) enqueueLocked(j Job) {
	s.inFlight++
	s.perClient[j.Client]++
	s.active[j.Hash] = j.ID
	s.hubs[j.ID] = newHub()
	id, hash, client := j.ID, j.Hash, j.Client
	s.pool.Submit(
		harness.Job{Key: id, Fn: s.runFn(id)},
		func(o harness.Outcome) { s.complete(id, hash, client, o) },
	)
}

func (s *Server) decClientLocked(client string) {
	if s.perClient[client]--; s.perClient[client] <= 0 {
		delete(s.perClient, client)
	}
}

// runFn builds the worker closure for one job: decode the stored
// canonical config, attach guards, cancellation and the progress hook,
// run, and encode the result canonically.
func (s *Server) runFn(id string) func() (any, error) {
	return func() (any, error) {
		j, ok := s.store.Transition(id, func(j *Job) { j.State = StateRunning })
		if !ok {
			return nil, fmt.Errorf("jobs: job %s missing from store", id)
		}
		s.noteStart(id)
		var cfg muzha.Config
		if err := json.Unmarshal(j.Config, &cfg); err != nil {
			return nil, fmt.Errorf("jobs: decode config of %s: %w", id, err)
		}
		if (cfg.Guards == muzha.RunGuards{}) {
			cfg.Guards = s.cfg.Guards
		}
		cfg.Workers = s.cfg.RunWorkers
		cfg.Cancel = s.cancel
		cfg.ProgressEvery = s.cfg.ProgressEvery
		cfg.Progress = func(u muzha.ProgressUpdate) {
			p := Progress{SimTimeNs: int64(u.SimTime), Events: u.Events}
			s.store.SetProgress(id, p)
			s.mu.Lock()
			h := s.hubs[id]
			s.mu.Unlock()
			if h != nil {
				h.pulse()
			}
		}
		res, err := muzha.Run(cfg)
		if err != nil {
			return nil, err
		}
		return EncodeResult(res)
	}
}

// complete records a finished job's outcome: cache + done on success,
// failed with its class on error, or back to queued when the run was
// canceled by a drain — the journal then re-runs it on the next start.
func (s *Server) complete(id, hash, client string, o harness.Outcome) {
	s.mu.Lock()
	var j Job
	switch {
	case o.Err == nil:
		j, _ = s.store.Done(id, s.cache.Put(hash, o.Value.(json.RawMessage)), false)
		s.stats.Completed++
	case errors.Is(o.Err, harness.ErrCanceled):
		j, _ = s.store.Transition(id, func(j *Job) {
			j.State = StateQueued
			j.Progress = Progress{}
		})
	default:
		j, _ = s.store.Transition(id, func(j *Job) {
			j.State = StateFailed
			j.Error = o.Err.Error()
			j.Class = string(o.Class)
		})
		s.stats.Failed++
	}
	if start, ok := s.started[id]; ok {
		delete(s.started, id)
		if j.State.Terminal() {
			s.observeRunLocked(time.Since(start))
		}
	}
	s.inFlight--
	s.decClientLocked(client)
	delete(s.active, hash)
	h := s.hubs[id]
	delete(s.hubs, id)
	s.mu.Unlock()
	if h != nil {
		h.finish()
	}
	s.cfg.Logf("jobs: %s -> %s", id, j.State)
}

// noteStart records when a job began executing on a pool worker, for
// the mean-duration Retry-After hint.
func (s *Server) noteStart(id string) {
	s.mu.Lock()
	s.started[id] = time.Now()
	s.mu.Unlock()
}

// observeRunLocked folds one completed job's wall duration into the
// EWMA the Retry-After hint is derived from.
func (s *Server) observeRunLocked(d time.Duration) {
	sec := d.Seconds()
	if s.meanRun <= 0 {
		s.meanRun = sec
	} else {
		s.meanRun = 0.8*s.meanRun + 0.2*sec
	}
}

// submitOne validates, hashes and admits one config. The int is the
// HTTP status: 200 cache hit or coalesced duplicate, 202 admitted,
// 400/429/503 rejected.
func (s *Server) submitOne(raw json.RawMessage, client string) (Job, int, error) {
	var cfg muzha.Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	if err := cfg.Validate(); err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	hash, err := cfg.Hash()
	if err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	// Store the canonical encoding, not the client's bytes, so the
	// journal and every response carry one stable form.
	canonical, err := json.Marshal(cfg)
	if err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitLocked(hash, canonical, client)
}

func (s *Server) admitLocked(hash string, canonical json.RawMessage, client string) (Job, int, error) {
	if p, ok := s.cache.lookup(hash); ok {
		// Cache hit: the job is born done, no simulation runs.
		s.stats.CacheHits++
		j := s.store.NewJob(hash, client, canonical)
		j, _ = s.store.Done(j.ID, p, true)
		return j, http.StatusOK, nil
	}
	if id, ok := s.active[hash]; ok {
		// The identical scenario is already queued or running: coalesce
		// onto it instead of paying for a second run.
		s.stats.Coalesced++
		if j, ok := s.store.Get(id); ok {
			return j, http.StatusOK, nil
		}
	}
	if s.draining {
		return Job{}, http.StatusServiceUnavailable, errors.New("daemon is draining")
	}
	if s.inFlight >= s.cfg.QueueDepth {
		s.stats.Rejected++
		return Job{}, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d jobs in flight)", s.inFlight)
	}
	if s.cfg.PerClient > 0 && s.perClient[client] >= s.cfg.PerClient {
		s.stats.Rejected++
		return Job{}, http.StatusTooManyRequests,
			fmt.Errorf("client %q at its limit of %d in-flight jobs", client, s.cfg.PerClient)
	}
	j := s.store.NewJob(hash, client, canonical)
	s.enqueueLocked(j)
	return j, http.StatusAccepted, nil
}

// Snapshot returns current daemon statistics.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Running = s.pool.Running()
	st.Queued = s.inFlight - st.Running
	if st.Queued < 0 {
		st.Queued = 0
	}
	st.Jobs = len(s.store.List())
	st.Cache = s.cache.Stats()
	st.CacheEntries = st.Cache.Entries
	st.Requeued = s.requeued
	st.Draining = s.draining
	if s.cfg.ChaosStats != nil {
		st.Chaos = s.cfg.ChaosStats()
	}
	return st
}

// RetryHint is the Retry-After value sent with 429/503: the estimated
// seconds until a slot frees, derived from the backlog and the observed
// mean job duration. Before any job has completed it falls back to "1".
func (s *Server) RetryHint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryHintLocked()
}

func (s *Server) retryHintLocked() string {
	if s.meanRun <= 0 {
		return "1"
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	queued := s.inFlight - s.pool.Running()
	if queued < 0 {
		queued = 0
	}
	// The next slot frees after the current wave; a queued backlog adds
	// one mean duration per full wave ahead of the caller.
	waves := math.Ceil(float64(queued+1) / float64(workers))
	sec := s.meanRun * waves
	switch {
	case sec < 0.5:
		sec = 0.5
	case sec > 60:
		sec = 60
	}
	return strconv.FormatFloat(sec, 'f', 1, 64)
}

// Drain gracefully shuts the server down: stop admitting, let queued
// and running jobs finish for up to grace, then close the shared Cancel
// channel so the engine aborts in-flight runs cooperatively (within one
// guard period). Canceled jobs return to queued in the journal and are
// re-run by the next daemon start. Drain returns once every worker has
// stopped.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	if grace <= 0 {
		s.cancelOnce.Do(func() { close(s.cancel) })
		<-done
		return
	}
	select {
	case <-done:
	case <-time.After(grace):
		s.cfg.Logf("jobs: drain grace %v expired, canceling in-flight runs", grace)
		s.cancelOnce.Do(func() { close(s.cancel) })
		<-done
	}
}

// Close releases the store and cache journals. Call after Drain.
func (s *Server) Close() error {
	return errors.Join(s.store.Close(), s.cache.Close())
}

// hub wakes a job's progress streamers. Progress values live in the
// Store; the hub only signals "something changed" by closing and
// replacing its channel, so any number of SSE handlers can wait on it
// without the run's progress callback ever blocking.
type hub struct {
	mu   sync.Mutex
	ch   chan struct{}
	done bool
}

func newHub() *hub { return &hub{ch: make(chan struct{})} }

func (h *hub) pulse() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	close(h.ch)
	h.ch = make(chan struct{})
}

// finish marks the terminal pulse: the channel closes and stays closed.
func (h *hub) finish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		h.done = true
		close(h.ch)
	}
}

func (h *hub) wait() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ch
}
