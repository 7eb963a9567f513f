package main

import (
	"bytes"
	"fmt"
	"time"

	"muzha"
	"muzha/internal/jobs"
)

// islandWorlds are the 1000-node worlds of one islands-1k pass: world j
// places its flows with seed derive(j, 1) and runs with sim seed
// derive(j, 2). 14 of 44 such worlds screened trip the route-loop-free
// invariant (an AODV defect at this scale, see README.md), so the pass
// is this fixed, screened set rather than worlds drawn from the
// workload seed; the seed rotates their order. Six worlds keep one
// costly topology from dominating ops_per_s and still fit a pass into
// the timed phase twice.
var islandWorlds = []int64{0, 1, 2, 3, 4, 5}

// setupPaperChains builds one pass of the paper's Simulation 2 grid
// (DefaultChainSweep): every window x hop count x variant cell once,
// cell i with sim seed derive(0, i). The sim seeds are fixed because
// the slowest cells' event counts depend on them: drawing them from the
// workload seed moved op_ms_p99 by a fifth between seeds. The workload
// seed rotates the pass order.
func setupPaperChains(o options, tr *tracer, parent int) (instance, error) {
	sw := muzha.DefaultChainSweep()
	if o.tiny {
		sw.Windows, sw.Hops, sw.Duration = []int{4, 32}, []int{4, 8}, time.Second
	}
	tops := make(map[int]muzha.Topology, len(sw.Hops))
	for _, hops := range sw.Hops {
		sp := tr.start("topo", parent, opSetup)
		top, err := muzha.ChainTopology(hops)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tops[hops] = top
	}
	var cfgs []muzha.Config
	for _, w := range sw.Windows {
		for _, hops := range sw.Hops {
			for _, v := range sw.Variants {
				cfg := muzha.DefaultConfig()
				cfg.Topology = tops[hops]
				cfg.Duration = sw.Duration
				cfg.Window = w
				cfg.Seed = derive(0, int64(len(cfgs)))
				cfg.Flows = []muzha.Flow{{Src: 0, Dst: hops, Variant: v}}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return newSimInstance(rotate(cfgs, o.seed)), nil
}

// rotate starts the pass at the config the workload seed picks.
func rotate(cfgs []muzha.Config, seed int64) []muzha.Config {
	k := int(uint64(seed) % uint64(len(cfgs)))
	return append(cfgs[k:len(cfgs):len(cfgs)], cfgs[:k]...)
}

// setupIslands builds the BenchmarkScenario1000Node world for each of
// islandWorlds: 16 islands of 8x8 nodes with 8 seeded Muzha flows each,
// expanding-ring AODV, 3 s simulated.
func setupIslands(o options, tr *tracer, parent int) (instance, error) {
	worlds, islands, side, flows, dur := islandWorlds, 16, 8, 8, 3*time.Second
	if o.tiny {
		worlds, islands, side, flows, dur = islandWorlds[:2], 2, 4, 2, time.Second
	}
	cfgs := make([]muzha.Config, len(worlds))
	for i := range cfgs {
		j := worlds[i]
		sp := tr.start("topo", parent, opSetup)
		top, err := muzha.GridIslandsFlowsTopology(islands, side, side, 1500, flows, derive(j, 1))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cfg := muzha.DefaultConfig()
		cfg.Topology = top
		cfg.Duration = dur
		cfg.Window = 8
		cfg.ExpandingRing = true
		cfg.Seed = derive(j, 2)
		// The run takes about 5M events; tripping this means a blowup.
		cfg.Guards.MaxEvents = 20_000_000
		for _, e := range top.FlowEndpoints() {
			cfg.Flows = append(cfg.Flows, muzha.Flow{Src: e[0], Dst: e[1], Variant: muzha.Muzha})
		}
		cfgs[i] = cfg
	}
	return newSimInstance(rotate(cfgs, o.seed)), nil
}

// simInstance runs a fixed list of configs, a pass, with muzha.Run on
// the default engine, one run at a time and only in whole passes, so
// every phase has the same op mix whatever its length. An op is
// Run -> EncodeResult.
type simInstance struct {
	cfgs []muzha.Config
	// ref holds each config's encoded Result from its first timed run;
	// every later run of the config must give the same bytes.
	ref       [][]byte
	refCounts layerCounts
	warm      []byte
	nextOp    int
}

func newSimInstance(cfgs []muzha.Config) *simInstance {
	return &simInstance{cfgs: cfgs, ref: make([][]byte, len(cfgs))}
}

// runOp runs one config and encodes its Result. A run error or an
// Always-invariant violation fails the op.
func runOp(cfg muzha.Config, tr *tracer, parent, op int) ([]byte, *muzha.Result, error) {
	sp := tr.start("engine", parent, op)
	res, err := muzha.Run(cfg)
	if err != nil {
		tr.end(sp)
		return nil, nil, err
	}
	tr.endEvents(sp, res.Events)
	if res.InvariantViolations > 0 {
		return nil, res, fmt.Errorf("%d Always-invariant violations", res.InvariantViolations)
	}
	sp = tr.start("result", parent, op)
	b, err := jobs.EncodeResult(res)
	tr.end(sp)
	return b, res, err
}

func (s *simInstance) warmup() error {
	b, _, err := runOp(s.cfgs[0], nil, 0, 0)
	s.warm = b
	return err
}

func (s *simInstance) phase(d time.Duration, tr *tracer) phaseResult {
	p := phaseResult{cells: len(s.cfgs)}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i, cfg := range s.cfgs {
			op := s.nextOp
			s.nextOp++
			t0 := time.Now()
			root := tr.start("op", 0, op)
			b, res, err := runOp(cfg, tr, root, op)
			tr.end(root)
			rec := opRecord{dur: time.Since(t0), cold: true, cell: i}
			switch {
			case err != nil:
				rec.failed = true
				p.problem("config %d: %v", i, err)
			case s.ref[i] == nil:
				s.ref[i] = b
				s.refCounts.add(res, len(b))
			case !bytes.Equal(b, s.ref[i]):
				rec.failed = true
				p.problem("config %d: a repeated run gave different Result bytes", i)
			}
			if res != nil {
				p.events += res.Events
			}
			p.ops = append(p.ops, rec)
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// verify re-runs the warm-up op, which must reproduce its bytes.
func (s *simInstance) verify(tr *tracer) []string {
	root := tr.start("verify", 0, opVerify)
	b, _, err := runOp(s.cfgs[0], tr, root, opVerify)
	tr.end(root)
	switch {
	case err != nil:
		return []string{fmt.Sprintf("warm-up re-run: %v", err)}
	case !bytes.Equal(b, s.warm):
		return []string{"warm-up re-run gave different Result bytes"}
	}
	return nil
}

func (s *simInstance) counts() layerCounts   { return s.refCounts }
func (s *simInstance) service() serviceStats { return serviceStats{} }
func (s *simInstance) close()                {}

// maxProblems bounds the mismatch messages one phase keeps.
const maxProblems = 10

func (p *phaseResult) problem(format string, args ...any) {
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}
