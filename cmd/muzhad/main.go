// Command muzhad is the simulation-as-a-service daemon: it accepts
// simulation job submissions over HTTP (single runs and sweeps), runs
// them on a supervised worker pool, caches results by config content
// hash so identical (config, seed) submissions are served instantly,
// and streams job progress as server-sent events.
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
// Fleet mode federates daemons. A coordinator serves the same /v1 API
// but dispatches jobs to workers under time-bounded leases instead of
// simulating, and its result cache is the fleet's shared tier:
//
//	muzhad -coordinator -addr :7370 -data /var/lib/muzhad-coord
//	muzhad -join http://coord:7370 -addr :7371 -data /var/lib/muzhad-w1
//
// Workers keep serving their local /v1 API; a worker that loses the
// coordinator degrades to plain single-node operation and rejoins
// automatically. A killed worker's leases expire and its jobs re-shard;
// a killed coordinator restarts from its job-store journal and
// re-dispatches everything non-terminal.
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
	"muzha/internal/chaoscov"
	"muzha/internal/fleet"
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
		runWorkers = fs.Int("run-workers", 0, "interaction domains each job simulates at once (0 or 1 = one goroutine; applied server-wide, overriding submissions; never changes a result)")
		queue      = fs.Int("queue", 64, "max queued+running jobs before submissions get 429")
		perClient  = fs.Int("per-client", 16, "max in-flight jobs per client (negative disables)")
		deadline   = fs.Duration("deadline", 5*time.Minute, "default per-run wall-clock deadline")
		maxEvents  = fs.Uint64("max-events", 0, "default per-run event budget (0 = unbounded)")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "how long a shutdown lets running jobs finish before canceling them")
		progress   = fs.Uint64("progress-every", 1<<16, "progress snapshot period in engine events")

		cacheEntries = fs.Int("cache-max-entries", 0, "result-cache entry cap; least-recently-used results are evicted past it (0 = unbounded)")
		cacheBytes   = fs.Int64("cache-max-bytes", 0, "result-cache byte cap for cached result payloads (0 = unbounded)")
		corpus       = fs.String("chaos-corpus", "", "chaos-corpus JSONL to summarize in /v1/stats (written by muzhasim -chaos-cov)")

		coordinator = fs.Bool("coordinator", false, "run as fleet coordinator: lease jobs to joined workers instead of simulating locally")
		join        = fs.String("join", "", "coordinator URL to join as a fleet worker (e.g. http://127.0.0.1:7370)")
		fleetID     = fs.String("fleet-id", "", "stable worker identity (default: the listen address)")
		leaseTTL    = fs.Duration("lease-ttl", 15*time.Second, "coordinator: lease duration; an unrenewed lease re-shards its job")
		fleetHB     = fs.Duration("fleet-heartbeat", 3*time.Second, "coordinator: heartbeat interval advertised to workers")
		fleetSlots  = fs.Int("fleet-slots", 0, "worker: max concurrently leased fleet jobs (default: workers)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator && *join != "" {
		return errors.New("-coordinator and -join are mutually exclusive")
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
			LivelockWindow: 5_000_000,
		},
		ProgressEvery: *progress,
		RunWorkers:    *runWorkers,
		Logf:          logger.Printf,
		CacheLimit: jobs.CacheLimit{
			MaxEntries: *cacheEntries,
			MaxBytes:   *cacheBytes,
		},
	}
	if *corpus != "" {
		path := *corpus
		scfg.ChaosStats = func() *chaoscov.Info {
			info, err := chaoscov.ReadInfo(path)
			if err != nil {
				logger.Printf("chaos corpus %s: %v", path, err)
				return nil
			}
			return &info
		}
	}

	var coord *fleet.Coordinator
	var agent *fleet.Agent
	if *coordinator {
		coord = fleet.NewCoordinator(fleet.CoordinatorConfig{
			LeaseTTL:  *leaseTTL,
			Heartbeat: *fleetHB,
			Logf:      logger.Printf,
		})
		scfg.Runner = coord
		scfg.FleetStats = coord.FleetStats
	}
	if *join != "" {
		id := *fleetID
		if id == "" {
			id = *addr
		}
		slots := *fleetSlots
		if slots <= 0 {
			slots = *workers
			// Leased jobs are admitted as one local client; never lease
			// more than that client is allowed to have in flight.
			if *perClient > 0 && slots > *perClient {
				slots = *perClient
			}
		}
		agent = fleet.NewAgent(fleet.AgentConfig{
			Coordinator: *join,
			ID:          id,
			Slots:       slots,
			Logf:        logger.Printf,
		})
		scfg.Peer = agent
		scfg.FleetStats = agent.FleetStats
	}

	srv, err := jobs.NewServer(scfg)
	if err != nil {
		return err
	}

	handler := http.Handler(srv.Handler())
	if coord != nil {
		coord.Bind(srv)
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		coord.Register(mux)
		handler = mux
	}
	if agent != nil {
		agent.Bind(srv)
		agent.Start()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		if agent != nil {
			agent.Stop()
		}
		srv.Drain(0)
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	switch {
	case coord != nil:
		logger.Printf("coordinator listening on http://%s (data %s, lease TTL %v)", ln.Addr(), *data, *leaseTTL)
	case agent != nil:
		logger.Printf("worker listening on http://%s (data %s, %d workers, joined %s)", ln.Addr(), *data, *workers, *join)
	default:
		logger.Printf("listening on http://%s (data %s, %d workers, queue %d)", ln.Addr(), *data, *workers, *queue)
	}

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
	// Close force-ends any stragglers. A worker leaves the fleet before
	// draining so no fresh leases arrive for a dying daemon.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if agent != nil {
		agent.Stop()
	}
	srv.Drain(*drainGrace)
	httpSrv.Close()
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close journals: %w", err)
	}
	logger.Printf("drained, bye")
	return nil
}
