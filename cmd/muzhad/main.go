// Command muzhad is the simulation-as-a-service daemon: it accepts
// simulation job submissions over HTTP, one muzha.Config per POST
// /v1/jobs (clients such as muzhasim -remote compile scenario specs and
// sweeps into Configs), runs them on a supervised worker pool, caches
// results by config content hash so identical (config, seed)
// submissions are served instantly, and streams job progress as
// server-sent events.
//
//	muzhad -addr 127.0.0.1:7370 -data /var/lib/muzhad
//
// Submit, poll, stream (see README for the full API):
//
//	curl -s localhost:7370/v1/jobs -d '{"config": {...}}'
//	curl -s localhost:7370/v1/jobs/j000000-ab12cd34ef56
//	curl -sN localhost:7370/v1/jobs/j000000-ab12cd34ef56/stream
//
// The job store and result cache are JSONL journals under -data: a
// daemon killed mid-job (even SIGKILL) restarts with the interrupted
// job re-queued and every finished result still cached. SIGINT/SIGTERM
// trigger a graceful drain: new submissions are refused, running jobs
// get -drain-grace to finish, then in-flight runs are canceled
// cooperatively and left queued for the next start.
//
// -workers sets how many jobs run at once; inside one job, up to
// GOMAXPROCS interaction domains simulate at once, and that width never
// changes a result. A running job reports a progress snapshot every
// 65,536 engine events and once when it stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"muzha"
	"muzha/internal/harness"
	"muzha/internal/jobs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "muzhad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("muzhad", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7370", "HTTP listen address")
		data       = fs.String("data", "muzhad-data", "data directory for the job store and result cache")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "simulation worker count")
		queue      = fs.Int("queue", 64, "max queued+running jobs before submissions get 429")
		perClient  = fs.Int("per-client", 16, "max in-flight jobs per client (negative disables)")
		deadline   = fs.Duration("deadline", 5*time.Minute, "default per-run wall-clock deadline")
		maxEvents  = fs.Uint64("max-events", 0, "default per-run event budget (0 = unbounded)")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "how long a shutdown lets running jobs finish before canceling them")

		cacheEntries = fs.Int("cache-max-entries", 0, "result-cache entry cap; least-recently-used results are evicted past it (0 = unbounded)")
		cacheBytes   = fs.Int64("cache-max-bytes", 0, "result-cache byte cap for cached result payloads (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "muzhad: ", log.LstdFlags)
	scfg := jobs.ServerConfig{
		DataDir:    *data,
		Workers:    *workers,
		QueueDepth: *queue,
		PerClient:  *perClient,
		Guards: muzha.RunGuards{
			WallClock:      *deadline,
			MaxEvents:      *maxEvents,
			LivelockWindow: harness.DefaultLivelockWindow,
		},
		Logf: logger.Printf,
		CacheLimit: harness.CacheLimit{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
		},
	}
	srv, err := jobs.NewServer(scfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Drain(0)
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Printf("listening on http://%s (data %s, %d workers, queue %d)", ln.Addr(), *data, *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("received %v, draining (grace %v)", sig, *drainGrace)
	case err := <-errc:
		srv.Drain(0)
		srv.Close()
		return err
	}

	// Stop the listener first so the drain sees no new submissions. Open
	// SSE streams are allowed to outlive the short shutdown window —
	// they end naturally when their jobs finish during the drain, and
	// Close force-ends any stragglers.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	srv.Drain(*drainGrace)
	httpSrv.Close()
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close journals: %w", err)
	}
	logger.Printf("drained, bye")
	return nil
}
