package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"muzha"
	"muzha/internal/jobs"
)

// muzhad-mix sizes.
const (
	mixClients = 2
	// Every block of mixBlock ops holds exactly mixHitsPerBlock hits, so
	// any prefix of a client's list has the same hit/cold split. 45%
	// rather than 50% hits puts op_ms_p50 inside the cold ops instead of
	// on the boundary between the two latency modes.
	mixBlock        = 20
	mixHitsPerBlock = 9
	// mixMaxOps bounds a client's list; a 60 s phase completes far fewer.
	mixMaxOps = 1 << 14
	// mixSamples cold ops per client are re-run locally after the timed
	// phases and must match the daemon's bytes.
	mixSamples = 3
	// chaosTemplates fixed ChaosScenario seeds are the chaos half of the
	// cold templates.
	chaosTemplates = 12
	// mixPool is how many screened sim seeds each template has. Client c
	// draws the entries k with k%mixClients == c, so the clients never
	// submit the same config, and a client's mixMaxOps list needs fewer
	// than mixPool/mixClients of any template. Entry mixPool of template
	// 0 is the warm-up op.
	mixPool = 1000
)

// poolSeed is the sim seed of entry k of template t's pool.
func poolSeed(t, k int) int64 { return derive(int64(t), 7, int64(k)) }

// mixUnsafe lists, per template, the pool entries whose run trips an
// Always invariant: AODV under partitions and crashes occasionally
// forms a transient routing loop (about one run in 750 of chaos
// template 1), which route-loop-free reports. Drawing sim seeds from
// the workload seed hit one in a few dozen runs of the benchmark, so
// cold ops draw only from the screened pools. TestScreenMixPool
// regenerates this list (PERFBENCH_SCREEN=1); a change to the
// simulator that moves any run's outcome needs a new screen.
var mixUnsafe = map[int][]int{
	1: {43, 234},
}

// mixOp is one op of a client's list. A cold op submits a new config:
// template tmpl with sim seed seed. A hit re-submits the config of the
// client's earlier cold op number ref, copied into tmpl and seed.
type mixOp struct {
	cold bool
	tmpl int
	seed int64
	ref  int
}

// mixOps builds one client's list from the workload seed. Cold ops walk
// the templates in a fresh seeded order each cycle, so every cycle has
// the same cost mix, and take each template's pool entries in a seeded
// order; hits pick a uniformly random earlier cold op.
func mixOps(seed int64, client, templates int) []mixOp {
	rng := rand.New(rand.NewSource(derive(seed, 3, int64(client))))
	pools := make([][]int, templates)
	for t := range pools {
		unsafe := map[int]bool{}
		for _, k := range mixUnsafe[t] {
			unsafe[k] = true
		}
		for k := client; k < mixPool; k += mixClients {
			if !unsafe[k] {
				pools[t] = append(pools[t], k)
			}
		}
		rng.Shuffle(len(pools[t]), func(i, j int) { pools[t][i], pools[t][j] = pools[t][j], pools[t][i] })
	}
	var ops, colds []mixOp
	var perm []int
	for len(ops) < mixMaxOps {
		hit := make([]bool, mixBlock)
		for _, i := range rng.Perm(mixBlock)[:mixHitsPerBlock] {
			hit[i] = true
		}
		if len(ops) == 0 && hit[0] {
			// The first op must be cold: there is nothing to re-submit yet.
			for i := range hit {
				if !hit[i] {
					hit[0], hit[i] = false, true
					break
				}
			}
		}
		for _, h := range hit {
			if h {
				ref := rng.Intn(len(colds))
				ops = append(ops, mixOp{tmpl: colds[ref].tmpl, seed: colds[ref].seed, ref: ref})
				continue
			}
			if len(colds)%templates == 0 {
				perm = rng.Perm(templates)
			}
			t := perm[len(colds)%templates]
			n := len(colds) / templates
			if n == len(pools[t]) {
				return ops // only the few tiny-size templates get here
			}
			op := mixOp{cold: true, tmpl: t, seed: poolSeed(t, pools[t][n])}
			colds = append(colds, op)
			ops = append(ops, op)
		}
	}
	return ops
}

// mixTemplates builds the cold-job templates: fixed ChaosScenario seeds
// (faults, mobility, DSR, RED, CBR) and the modern-sender cells (CUBIC
// with pacing and BBR-lite, with and without router assist, RED+ECN,
// burst loss) over the three worlds of the modern comparison grid. They
// do not depend on the workload seed, so every seed has the same cost
// mix; ops only vary the sim seed.
func mixTemplates(tiny bool, tr *tracer, parent int) ([]muzha.Config, error) {
	dur, nchaos := 10*time.Second, chaosTemplates
	if tiny {
		dur, nchaos = 2*time.Second, 2
	}
	var out []muzha.Config
	for s := 1; s <= nchaos; s++ {
		sp := tr.start("topo", parent, opSetup)
		cfg, _, err := muzha.ChaosScenario(int64(s), dur)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	type world struct {
		top      muzha.Topology
		src, dst int
		mob      *muzha.Mobility
	}
	var worlds []world
	sp := tr.start("topo", parent, opSetup)
	chain, err := muzha.ChainTopology(6)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	worlds = append(worlds, world{top: chain, src: 0, dst: 6})
	if !tiny {
		sp = tr.start("topo", parent, opSetup)
		rgeo, err := muzha.RandomGeometricTopology(24, 2000, 2000, 1, 42)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		fe := rgeo.FlowEndpoints()
		if len(fe) == 0 {
			return nil, fmt.Errorf("rgeo world has no flow pair")
		}
		worlds = append(worlds, world{top: rgeo, src: fe[0][0], dst: fe[0][1]})
		sp = tr.start("topo", parent, opSetup)
		spaced, err := muzha.ChainTopologySpaced(4, 180)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		worlds = append(worlds, world{top: spaced, src: 0, dst: 4, mob: &muzha.Mobility{
			Model: muzha.MobilityManhattan, Width: 720, Height: 360, GridSpacing: 180,
			MinSpeed: 1, MaxSpeed: 3, MobileNodes: []int{2},
		}})
	}
	for _, w := range worlds {
		for _, v := range []muzha.Variant{muzha.CUBIC, muzha.BBRLite} {
			for _, assist := range []bool{true, false} {
				cfg := muzha.DefaultConfig()
				cfg.Topology = w.top
				cfg.Duration = dur
				cfg.Window = 32
				// DRAIClamp stays off: the daemon's config wire form
				// drops it, so a clamped job would run unclamped and fail
				// the local re-run check.
				cfg.RouterAssist = assist
				cfg.UseRED, cfg.REDMarkECN = true, true
				cfg.Pacing = v == muzha.CUBIC
				cfg.Mobility = w.mob
				cfg.Flows = []muzha.Flow{{Src: w.src, Dst: w.dst, Variant: v}}
				cfg.Faults = []muzha.FaultEvent{{
					Kind: muzha.FaultBurstLoss, At: dur / 4, Duration: dur / 2,
					BadLossRate: 0.3, MeanBurstFrames: 6, MeanGapFrames: 150,
				}}
				out = append(out, cfg)
			}
		}
	}
	return out, nil
}

// mixInstance is an in-process muzhad (one run worker, a temporary data
// directory) served over httptest loopback and driven by mixClients
// jobs.Client goroutines, each working through its own list in a closed
// loop. One op is Submit -> Stream (SSE) -> Result bytes.
type mixInstance struct {
	seed      int64
	templates []muzha.Config
	clients   []*mixClient
	dir       string
	srv       *jobs.Server
	hs        *httptest.Server
	transport *http.Transport
	warmCfg   muzha.Config
	warm      []byte
	stats     serviceStats
	refCounts *layerCounts
}

type mixClient struct {
	cl   *jobs.Client
	ops  []mixOp
	next int
	// delivered holds the Result bytes of each cold op, by cold number.
	delivered [][]byte
	hits      int
}

func setupMix(o options, tr *tracer, parent int) (instance, error) {
	tmpls, err := mixTemplates(o.tiny, tr, parent)
	if err != nil {
		return nil, err
	}
	m := &mixInstance{seed: o.seed, templates: tmpls}
	m.warmCfg = tmpls[0]
	m.warmCfg.Seed = poolSeed(0, mixPool)
	dir, err := os.MkdirTemp(o.workDir, "muzhad-")
	if err != nil {
		return nil, err
	}
	m.dir = dir
	m.srv, err = jobs.NewServer(jobs.ServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	m.hs = httptest.NewServer(m.srv.Handler())
	m.transport = &http.Transport{MaxIdleConnsPerHost: 2 * mixClients}
	hc := &http.Client{Transport: m.transport}
	for c := 0; c < mixClients; c++ {
		m.clients = append(m.clients, &mixClient{
			cl:  &jobs.Client{BaseURL: m.hs.URL, ClientID: fmt.Sprintf("client-%d", c), HTTPClient: hc},
			ops: mixOps(o.seed, c, len(tmpls)),
		})
	}
	return m, nil
}

func (m *mixInstance) config(op mixOp) muzha.Config {
	cfg := m.templates[op.tmpl]
	cfg.Seed = op.seed
	return cfg
}

// do runs one op: Submit, follow the SSE stream to the terminal job,
// fetch the Result bytes.
func (c *mixClient) do(ctx context.Context, cfg muzha.Config, tr *tracer, id int) (jobs.Job, []byte, error) {
	root := tr.start("op", 0, id)
	defer tr.end(root)
	sp := tr.start("jobs.submit", root, id)
	j, err := c.cl.Submit(ctx, cfg)
	tr.end(sp)
	if err != nil {
		return j, nil, fmt.Errorf("submit: %w", err)
	}
	sp = tr.start("jobs.wait", root, id)
	j, err = c.cl.Stream(ctx, j.ID, nil)
	tr.end(sp)
	if err != nil {
		return j, nil, fmt.Errorf("stream: %w", err)
	}
	if j.State != jobs.StateDone {
		return j, nil, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	sp = tr.start("jobs.fetch", root, id)
	b, err := c.cl.Result(ctx, j.ID)
	tr.end(sp)
	if err != nil {
		return j, nil, fmt.Errorf("fetch: %w", err)
	}
	return j, b, nil
}

func (m *mixInstance) warmup() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, b, err := m.clients[0].do(ctx, m.warmCfg, nil, 0)
	m.warm = b
	return err
}

func (m *mixInstance) phase(d time.Duration, tr *tracer) phaseResult {
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()
	start := time.Now()
	parts := make([]clientPhase, len(m.clients))
	var wg sync.WaitGroup
	for c := range m.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = m.clients[c].loop(ctx, m, start, d, tr, c)
		}(c)
	}
	wg.Wait()
	p := phaseResult{elapsed: time.Since(start)}
	// Decoding the cold Results for their event counts and invariant
	// checks happens after the clock stops.
	for c, part := range parts {
		base := len(p.ops)
		p.ops = append(p.ops, part.ops...)
		p.problems = append(p.problems, part.problems...)
		for _, cold := range part.colds {
			res, err := decodeResult(m.clients[c].delivered[cold.number])
			switch {
			case err != nil:
				p.ops[base+cold.rec].failed = true
				p.problem("client %d cold op %d: %v", c, cold.number, err)
			case res.InvariantViolations > 0:
				p.ops[base+cold.rec].failed = true
				p.problem("client %d cold op %d: %d Always-invariant violations", c, cold.number, res.InvariantViolations)
			default:
				p.events += res.Events
			}
		}
	}
	return p
}

// clientPhase is one client's share of a phase. colds lists its
// successful cold ops: the index of the op record and the cold number.
type clientPhase struct {
	phaseResult
	colds []struct{ rec, number int }
}

func (c *mixClient) loop(ctx context.Context, m *mixInstance, start time.Time, d time.Duration, tr *tracer, client int) clientPhase {
	var out clientPhase
	for time.Since(start) < d && c.next < len(c.ops) {
		i := c.next
		c.next++
		op := c.ops[i]
		t0 := time.Now()
		j, b, err := c.do(ctx, m.config(op), tr, i*mixClients+client)
		rec := opRecord{dur: time.Since(t0), cold: op.cold}
		switch {
		case err != nil:
			rec.failed = true
			out.problem("client %d op %d: %v", client, i, err)
		case op.cold == j.Cached:
			rec.failed = true
			out.problem("client %d op %d: cold=%t but the daemon reported cached=%t", client, i, op.cold, j.Cached)
		case !op.cold && !bytes.Equal(b, c.delivered[op.ref]):
			rec.failed = true
			out.problem("client %d op %d: a cache hit differs from the first delivery", client, i)
		}
		if op.cold {
			if !rec.failed {
				out.colds = append(out.colds, struct{ rec, number int }{len(out.ops), len(c.delivered)})
			}
			c.delivered = append(c.delivered, b)
		} else if !rec.failed {
			c.hits++
		}
		out.ops = append(out.ops, rec)
	}
	return out
}

func decodeResult(b []byte) (*muzha.Result, error) {
	var r muzha.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return &r, nil
}

// verify checks the daemon against local runs and its own counters:
// the warm-up config and a seeded sample of each client's cold ops must
// match a local EncodeResult(muzha.Run(cfg)), and /v1/stats must show
// exactly the hits and runs the lists asked for.
func (m *mixInstance) verify(tr *tracer) []string {
	var problems []string
	check := func(what string, cfg muzha.Config, want []byte) {
		root := tr.start("verify", 0, opVerify)
		b, _, err := runOp(cfg, tr, root, opVerify)
		tr.end(root)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s: local run: %v", what, err))
		case !bytes.Equal(b, want):
			problems = append(problems, fmt.Sprintf("%s: daemon bytes differ from a local run", what))
		}
	}
	check("warm-up op", m.warmCfg, m.warm)
	rng := rand.New(rand.NewSource(derive(m.seed, 6)))
	colds, hits := 0, 0
	for c, cl := range m.clients {
		colds += len(cl.delivered)
		hits += cl.hits
		picks := rng.Perm(len(cl.delivered))
		if len(picks) > mixSamples {
			picks = picks[:mixSamples]
		}
		for _, n := range picks {
			if cl.delivered[n] == nil {
				continue // the op already failed
			}
			check(fmt.Sprintf("client %d cold op %d", c, n), m.config(cl.coldOp(n)), cl.delivered[n])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := m.clients[0].cl.Stats(ctx)
	if err != nil {
		return append(problems, fmt.Sprintf("stats: %v", err))
	}
	if st.CacheHits != uint64(hits) || st.Coalesced != 0 || st.Completed != uint64(colds+1) {
		problems = append(problems, fmt.Sprintf(
			"/v1/stats shows %d hits, %d coalesced, %d runs; the lists asked for %d hits, 0 coalesced, %d runs",
			st.CacheHits, st.Coalesced, st.Completed, hits, colds+1))
	}
	m.stats = serviceStats{
		jobs:       uint64(st.Jobs),
		hits:       st.CacheHits,
		rejected:   st.Rejected,
		cacheBytes: st.Cache.Bytes,
	}
	if fi, err := os.Stat(filepath.Join(m.dir, "jobs.jsonl")); err == nil {
		m.stats.storeBytes = fi.Size()
	}
	return problems
}

// coldOp returns the client's cold op number n.
func (c *mixClient) coldOp(n int) mixOp {
	for _, op := range c.ops {
		if op.cold {
			if n == 0 {
				return op
			}
			n--
		}
	}
	panic("perfbench: cold op out of range")
}

// counts decodes each client's first cycle of cold Results: one run of
// every template, the same set on every run of a seed.
func (m *mixInstance) counts() layerCounts {
	if m.refCounts == nil {
		m.refCounts = &layerCounts{}
		for _, cl := range m.clients {
			for n, b := range cl.delivered {
				if n == len(m.templates) {
					break
				}
				if res, err := decodeResult(b); err == nil {
					m.refCounts.add(res, len(b))
				}
			}
		}
	}
	return *m.refCounts
}

func (m *mixInstance) service() serviceStats { return m.stats }

func (m *mixInstance) close() {
	m.hs.Close()
	m.transport.CloseIdleConnections()
	m.srv.Drain(time.Second)
	m.srv.Close()
	os.RemoveAll(m.dir)
}
