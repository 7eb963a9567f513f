package muzha

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/stats"
	"muzha/internal/topo"
	"muzha/internal/trace"
)

// Spatial-domain decomposition: the only engine.
//
// The channel model is strictly local — no radio pair farther apart
// than CSRange ever exchanges a frame, senses the other's carrier, or
// appears in the other's neighbor cache (see internal/phy/domains.go).
// Connected components of the dist<=CSRange graph are therefore
// causally independent for the entire run: the conservative lookahead
// between them is unbounded, so no synchronization windows or barrier
// rounds are needed at all. Each component becomes a complete
// sub-simulation (own scheduler, channel, nodes, routing, invariant
// checker) executing on a worker pool, and the results are merged
// deterministically afterwards.
//
// One determinism contract covers every run: the output is a pure
// function of (config, seed) and independent of Workers. A
// single-domain scenario (every chain and cross the paper uses) runs
// as one sub-simulation with the run seed itself. A multi-domain
// scenario derives per-domain seeds by index, each domain's event
// stream is internally sequential, and every merge below iterates in
// domain order. The golden tests pin the fixtures and replay them at
// widths 0 through 8.

// subSeed derives the RNG seed of one domain from the run seed, via a
// splitmix64 finalizer so neighboring (seed, domain) pairs decorrelate.
func subSeed(seed int64, domain int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(domain+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// planDomains computes the conservative interaction domains of cfg:
// CSRange connectivity, mobile-node footprints, and the hard coupling
// of transport and background endpoints (a flow needs both ends on one
// timeline).
func planDomains(cfg Config) [][]int {
	tp := cfg.Topology.inner
	in := phy.DomainInput{
		Positions: tp.Positions,
		CSRange:   phy.DefaultConfig().CSRange,
	}
	if cfg.Mobility != nil {
		in.FieldW = cfg.Mobility.Width
		in.FieldH = cfg.Mobility.Height
		in.Mobile = cfg.Mobility.MobileNodes
	}
	for _, f := range cfg.Flows {
		in.Couple = append(in.Couple, [2]int{f.Src, f.Dst})
	}
	for _, b := range cfg.Background {
		in.Couple = append(in.Couple, [2]int{b.Src, b.Dst})
	}
	return phy.Domains(in)
}

// subScenario is one domain's sub-simulation: a self-contained Config
// over the domain's nodes plus the bookkeeping to map its results back
// to global identifiers.
type subScenario struct {
	cfg     Config
	nodes   []int // local index -> global node index (sorted)
	flows   []int // local flow index -> global flow index
	bgFlows []int // local background index -> global background index
}

// buildSub constructs the sub-simulation of one domain. Faults are
// scoped per kind: a crash follows its node; a blackout applies only
// when both endpoints share the domain (a cross-domain pair is out of
// range, so the blackout was already a physical no-op); partitions and
// burst-loss phases are channel-global and replicate into every domain
// (partition groups intersected with the domain, preserving group
// positions so class identities survive).
func buildSub(cfg Config, domain int, nodes []int) subScenario {
	local := make(map[int]int, len(nodes))
	for li, gi := range nodes {
		local[gi] = li
	}

	tp := cfg.Topology.inner
	pos := make([]topo.Position, len(nodes))
	for li, gi := range nodes {
		pos[li] = tp.Positions[gi]
	}
	sub := cfg
	sub.Seed = subSeed(cfg.Seed, domain)
	sub.Topology = Topology{inner: &topo.Topology{
		Name:      fmt.Sprintf("%s/domain-%d", tp.Name, domain),
		Positions: pos,
	}}
	sub.Progress = nil
	sub.eventHook = nil

	sc := subScenario{nodes: nodes}
	sub.Flows = nil
	for gi, f := range cfg.Flows {
		if _, ok := local[f.Src]; !ok {
			continue
		}
		f.Src = local[f.Src]
		f.Dst = local[f.Dst]
		sub.Flows = append(sub.Flows, f)
		sc.flows = append(sc.flows, gi)
	}
	sub.Background = nil
	for gi, b := range cfg.Background {
		if _, ok := local[b.Src]; !ok {
			continue
		}
		b.Src = local[b.Src]
		b.Dst = local[b.Dst]
		sub.Background = append(sub.Background, b)
		sc.bgFlows = append(sc.bgFlows, gi)
	}

	sub.Mobility = nil
	if cfg.Mobility != nil {
		var mobile []int
		for _, m := range cfg.Mobility.MobileNodes {
			if li, ok := local[m]; ok {
				mobile = append(mobile, li)
			}
		}
		if len(mobile) > 0 {
			m := *cfg.Mobility
			m.MobileNodes = mobile
			sub.Mobility = &m
		}
	}

	sub.Faults = nil
	for _, fe := range cfg.Faults {
		switch fe.Kind {
		case FaultNodeCrash:
			if li, ok := local[fe.Node]; ok {
				fe.Node = li
				sub.Faults = append(sub.Faults, fe)
			}
		case FaultLinkBlackout:
			la, oka := local[fe.LinkA]
			lb, okb := local[fe.LinkB]
			if oka && okb {
				fe.LinkA, fe.LinkB = la, lb
				sub.Faults = append(sub.Faults, fe)
			}
		case FaultPartition:
			groups := make([][]int, len(fe.Groups))
			for gi, g := range fe.Groups {
				for _, id := range g {
					if li, ok := local[id]; ok {
						groups[gi] = append(groups[gi], li)
					}
				}
			}
			fe.Groups = groups
			sub.Faults = append(sub.Faults, fe)
		case FaultBurstLoss:
			sub.Faults = append(sub.Faults, fe)
		}
	}

	sc.cfg = sub
	return sc
}

// subEvent is one executed engine event of a sub-run, buffered for the
// deterministic replay of the merged (time, seq) stream.
type subEvent struct {
	at  sim.Time
	seq uint64
}

// domainTrace buffers one domain's packet trace for the merge,
// renumbering each event to global node and flow IDs as it is recorded.
// Packet UIDs stay per domain.
type domainTrace struct {
	sub    *subScenario
	flows  int // global TCP flow count
	events *[]trace.Event
}

// Record implements trace.Recorder.
func (t *domainTrace) Record(e trace.Event) {
	e.Node, e.Src, e.Dst = t.node(e.Node), t.node(e.Src), t.node(e.Dst)
	if e.Flow > 0 {
		// Local TCP flows are numbered 1..n, background flows above them.
		n := len(t.sub.flows)
		if li := int(e.Flow) - 1; li < n {
			e.Flow = int32(t.sub.flows[li] + 1)
		} else {
			e.Flow = int32(t.flows + t.sub.bgFlows[li-n] + 1)
		}
	}
	*t.events = append(*t.events, e)
}

func (t *domainTrace) node(id packet.NodeID) packet.NodeID {
	if id < 0 {
		return id // broadcast
	}
	return packet.NodeID(t.sub.nodes[id])
}

// runDomains executes cfg as independent per-domain sub-simulations on
// max(cfg.Workers, 1) goroutines and merges their results, event-hook
// streams and packet traces (to rec, when non-nil) in domain order, so
// the outcome is identical at every width. A single domain runs with
// cfg itself, seed included.
func runDomains(cfg Config, rec trace.Recorder) (*Result, error) {
	domains := planDomains(cfg)
	if len(domains) <= 1 {
		return run(cfg, rec)
	}

	subs := make([]subScenario, len(domains))
	for d, nodes := range domains {
		subs[d] = buildSub(cfg, d, nodes)
	}

	// Event-hook streams and packet traces are buffered per domain and
	// replayed merged after the run, when observed.
	streams := make([][]subEvent, len(domains))
	traces := make([][]trace.Event, len(domains))

	// Progress aggregation: each domain bumps its own atomic counters;
	// a mutex serializes the user callback. The aggregate virtual time
	// is the frontier (minimum) over unfinished domains — the
	// conservative "simulated up to" claim.
	var (
		progressMu sync.Mutex
		domTime    = make([]atomic.Int64, len(domains))
		domEvents  = make([]atomic.Uint64, len(domains))
	)
	emitProgress := func() {
		var events uint64
		minTime := int64(1<<63 - 1)
		for d := range domains {
			events += domEvents[d].Load()
			if t := domTime[d].Load(); t < minTime {
				minTime = t
			}
		}
		progressMu.Lock()
		cfg.Progress(ProgressUpdate{SimTime: time.Duration(minTime), Events: events})
		progressMu.Unlock()
	}

	results := make([]*Result, len(domains))
	errs := make([]error, len(domains))

	sem := make(chan struct{}, min(max(cfg.Workers, 1), len(domains)))
	var wg sync.WaitGroup
	for d := range subs {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			sub := subs[d].cfg
			if cfg.eventHook != nil {
				sub.eventHook = func(at sim.Time, seq uint64) {
					streams[d] = append(streams[d], subEvent{at: at, seq: seq})
				}
			}
			var subRec trace.Recorder
			if rec != nil {
				subRec = &domainTrace{sub: &subs[d], flows: len(cfg.Flows), events: &traces[d]}
			}
			if cfg.Progress != nil {
				sub.Progress = func(u ProgressUpdate) {
					domTime[d].Store(int64(u.SimTime))
					domEvents[d].Store(u.Events)
					emitProgress()
				}
				sub.ProgressEvery = cfg.ProgressEvery
			}
			results[d], errs[d] = run(sub, subRec)
		}()
	}
	wg.Wait()

	var errAll []error
	for d, err := range errs {
		if err != nil {
			errAll = append(errAll, fmt.Errorf("domain %d (nodes %v): %w", d, subs[d].nodes, err))
		}
	}
	if len(errAll) > 0 {
		return nil, errors.Join(errAll...)
	}

	res := mergeResults(cfg, subs, results)

	if cfg.Progress != nil {
		// Terminal snapshot mirroring a single domain's: the full
		// virtual time span and the total event count.
		var maxTime time.Duration
		for _, r := range results {
			if r.Duration > maxTime {
				maxTime = r.Duration
			}
		}
		progressMu.Lock()
		cfg.Progress(ProgressUpdate{SimTime: maxTime, Events: res.Events})
		progressMu.Unlock()
	}

	if cfg.eventHook != nil {
		mergeStreams(streams, func(e subEvent) sim.Time { return e.at },
			func(e subEvent) { cfg.eventHook(e.at, e.seq) })
	}
	if rec != nil {
		mergeStreams(traces, func(e trace.Event) sim.Time { return e.T }, rec.Record)
	}
	return res, nil
}

// mergeStreams emits the buffered per-domain streams as one globally
// ordered stream: ascending time, ties broken by domain index, order
// within a domain preserved. Each stream is already time-sorted (a
// scheduler's execution times are monotone), so this is a k-way merge.
func mergeStreams[T any](streams [][]T, at func(T) sim.Time, emit func(T)) {
	heads := make([]int, len(streams))
	for {
		best := -1
		for d, s := range streams {
			if heads[d] >= len(s) {
				continue
			}
			if best < 0 || at(s[heads[d]]) < at(streams[best][heads[best]]) {
				best = d
			}
		}
		if best < 0 {
			return
		}
		e := streams[best][heads[best]]
		heads[best]++
		emit(e)
	}
}

// mergeResults folds the per-domain results into one global Result.
// Every loop iterates in domain order over data the sub-runs produced
// deterministically, so the merged result is independent of scheduling.
func mergeResults(cfg Config, subs []subScenario, results []*Result) *Result {
	res := &Result{Duration: cfg.Duration}

	res.Flows = make([]FlowResult, len(cfg.Flows))
	for d, r := range results {
		res.Events += r.Events
		for li, gi := range subs[d].flows {
			fr := r.Flows[li]
			fr.ID = gi + 1
			fr.Src = cfg.Flows[gi].Src
			fr.Dst = cfg.Flows[gi].Dst
			res.Flows[gi] = fr
		}
		for li, gi := range subs[d].bgFlows {
			if res.Background == nil {
				res.Background = make([]BackgroundResult, len(cfg.Background))
			}
			br := r.Background[li]
			br.Src = cfg.Background[gi].Src
			br.Dst = cfg.Background[gi].Dst
			res.Background[gi] = br
		}
	}
	throughputs := make([]float64, len(res.Flows))
	for i, fr := range res.Flows {
		throughputs[i] = fr.ThroughputBps
	}
	res.JainIndex = stats.JainIndex(throughputs)

	res.Nodes = make([]NodeResult, cfg.Topology.Nodes())
	for d, r := range results {
		for li, nr := range r.Nodes {
			nr.ID = subs[d].nodes[li]
			res.Nodes[nr.ID] = nr
		}
	}

	// Invariants merge by name: counts sum, first-seen domain order is
	// kept (every domain registers the shared assertions in the same
	// code order, so this matches a single checker's report shape), details
	// keep the first few like a single checker would.
	index := make(map[string]int)
	for _, r := range results {
		for _, iv := range r.Invariants {
			i, ok := index[iv.Name]
			if !ok {
				index[iv.Name] = len(res.Invariants)
				res.Invariants = append(res.Invariants, iv)
				continue
			}
			m := &res.Invariants[i]
			m.Checks += iv.Checks
			m.Violations += iv.Violations
			for _, dt := range iv.Details {
				if len(m.Details) >= 4 {
					break
				}
				m.Details = append(m.Details, dt)
			}
		}
		res.InvariantViolations += r.InvariantViolations

		res.Faults.Crashes += r.Faults.Crashes
		res.Faults.Reboots += r.Faults.Reboots
		res.Faults.Blackouts += r.Faults.Blackouts
		res.Faults.Restores += r.Faults.Restores
		res.Faults.Partitions += r.Faults.Partitions
		res.Faults.Heals += r.Faults.Heals
		res.Faults.BurstPhases += r.Faults.BurstPhases
	}
	return res
}
