package muzha

import (
	"errors"
	"fmt"

	"muzha/internal/app"
	"muzha/internal/core"
	"muzha/internal/fault"
	"muzha/internal/harness"
	"muzha/internal/invariant"
	"muzha/internal/node"
	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
	"muzha/internal/stats"
	"muzha/internal/tcp"
	"muzha/internal/topo"
	"muzha/internal/trace"
)

// loopScanPeriod is how often the run-time route-loop-freedom invariant
// walks the AODV next-hop tables.
const loopScanPeriod = 200 * sim.Millisecond

// defaultProgressEvery is the Config.Progress callback period in events
// — roughly a few snapshots per simulated second of a saturated chain.
const defaultProgressEvery = 1 << 16

// chainGuards folds several guard functions into the engine's single
// guard slot; the first error wins.
func chainGuards(fns []func() error) func() error {
	if len(fns) == 1 {
		return fns[0]
	}
	return func() error {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

// Run executes one scenario deterministically and returns its metrics.
// Engine panics (a corrupted event heap, a radio double-transmit) are
// recovered and returned as errors wrapping ErrPanic with the virtual
// time and seed, so one broken scenario cannot take down a sweep or the
// fuzzer. Config.Guards bounds the run's wall-clock time, event count
// and progress; a tripped guard aborts cleanly with ErrDeadline,
// ErrEventBudget or ErrLivelock.
//
// Every run goes through the spatial-domain decomposition (see
// parallel.go): up to GOMAXPROCS domains simulate at once, and the
// output is identical at every width.
func Run(cfg Config) (res *Result, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PacketTrace == nil {
		return runDomains(cfg, nil)
	}
	// A truncated packet trace must never be mistaken for a complete
	// one: surface the writer's latched error, joined to the run error
	// when there is one.
	tw := trace.NewTextWriter(cfg.PacketTrace)
	res, err = runDomains(cfg, tw)
	if tw.Err() != nil {
		res, err = nil, errors.Join(err, fmt.Errorf("muzha: packet trace: %w", tw.Err()))
	}
	return res, err
}

// run simulates one interaction domain on one goroutine, recording
// packet events to rec when it is non-nil. It assumes cfg has been
// validated — runDomains calls it with per-domain sub-configs that are
// deliberately looser than user configs (a domain may carry zero
// flows).
func run(cfg Config, rec trace.Recorder) (res *Result, err error) {
	s := sim.New(cfg.Seed)
	if cfg.eventHook != nil {
		s.SetEventHook(cfg.eventHook)
	}
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("muzha: %w at t=%v seed=%d: %v", harness.ErrPanic, s.Now(), cfg.Seed, r)
		}
	}()

	phyCfg := phy.DefaultConfig()
	phyCfg.PacketErrorRate = cfg.PacketErrorRate
	ch, err := phy.NewChannel(s, phyCfg)
	if err != nil {
		return nil, err
	}

	nodeCfg := node.DefaultConfig()
	nodeCfg.QueueLimit = cfg.QueueLimit
	nodeCfg.UseRED = cfg.UseRED
	if cfg.UseRED {
		nodeCfg.RED.MinTh = float64(cfg.QueueLimit) / 4
		nodeCfg.RED.MaxTh = float64(cfg.QueueLimit) * 3 / 4
		nodeCfg.RED.MaxP = 0.1
		nodeCfg.RED.Weight = 0.002
		nodeCfg.RED.MarkInsteadOfDrop = cfg.REDMarkECN
	}
	if cfg.DisableRTSCTS {
		nodeCfg.MAC.RTSThreshold = 1 << 30
	}
	nodeCfg.ResidualLossRate = cfg.ResidualLossRate
	if cfg.UseDSR {
		nodeCfg.Protocol = node.RoutingDSR
	}
	nodeCfg.AODV.ExpandingRing = cfg.ExpandingRing
	nodeCfg.Trace = rec
	if cfg.RouterAssist {
		p := cfg.DRAI
		nodeCfg.DRAI = &p
	} else {
		nodeCfg.DRAI = nil
	}

	// Run-time invariant checking is always on: the checks are counter
	// increments on the hot path and their report lands in the Result.
	checker := invariant.New(s.Now)
	ledger := invariant.NewLedger(checker.Always("packet-conservation"))
	nodeCfg.Invariants = checker
	nodeCfg.Ledger = ledger

	var ids packet.IDGen
	tp := cfg.Topology.inner
	nodes := make([]*node.Node, tp.N())
	for i, pos := range tp.Positions {
		n, err := node.New(s, ch, pos, packet.NodeID(i), &ids, nodeCfg)
		if err != nil {
			return nil, fmt.Errorf("muzha: node %d: %w", i, err)
		}
		nodes[i] = n
	}

	if cfg.Mobility != nil {
		switch cfg.Mobility.Model {
		case MobilityManhattan:
			m, err := topo.NewManhattan(s, ch, topo.ManhattanConfig{
				Width:            cfg.Mobility.Width,
				Height:           cfg.Mobility.Height,
				Spacing:          cfg.Mobility.GridSpacing,
				MinSpeed:         cfg.Mobility.MinSpeed,
				MaxSpeed:         cfg.Mobility.MaxSpeed,
				MobileNodes:      cfg.Mobility.MobileNodes,
				InitialPositions: tp.Positions,
			})
			if err != nil {
				return nil, err
			}
			m.Start()
		default:
			w, err := topo.NewWaypoint(s, ch, topo.WaypointConfig{
				Width:            cfg.Mobility.Width,
				Height:           cfg.Mobility.Height,
				MinSpeed:         cfg.Mobility.MinSpeed,
				MaxSpeed:         cfg.Mobility.MaxSpeed,
				Pause:            sim.FromDuration(cfg.Mobility.Pause),
				MobileNodes:      cfg.Mobility.MobileNodes,
				InitialPositions: tp.Positions,
			})
			if err != nil {
				return nil, err
			}
			w.Start()
		}
	}

	duration := sim.FromDuration(cfg.Duration)
	flowStats := make([]*stats.Flow, len(cfg.Flows))
	senders := make([]*tcp.Sender, len(cfg.Flows))
	for i, f := range cfg.Flows {
		i, f := i, f
		flowID := int32(i + 1)

		fl := stats.NewFlow(i+1, string(f.variant()), sim.FromDuration(cfg.ThroughputBin))
		if !cfg.TraceCwnd {
			fl.DisableCwnd()
		}
		flowStats[i] = fl

		window := f.Window
		if window == 0 {
			window = cfg.Window
		}
		senderCfg := tcp.SenderConfig{
			FlowID:           flowID,
			Dst:              nodeID(f.Dst),
			MSS:              cfg.MSS,
			AdvertisedWindow: window,
			MaxBytes:         f.MaxBytes,
			Stats:            fl,
			Invariants:       checker,
			Pace:             cfg.Pacing,
		}

		srcNode := nodes[f.Src]
		var v tcp.Variant
		switch f.variant() {
		case Muzha:
			m := core.NewMuzha()
			m.MarkedMeansCongestion = cfg.MuzhaLossDiscrimination
			senderCfg.StampAVBW = true
			v = m
		case Tahoe:
			v = tcp.NewTahoe()
		case Reno:
			v = tcp.NewReno2()
		case SACK:
			v = tcp.NewSACK()
		case Vegas:
			v = tcp.NewVegas()
		case Veno:
			v = tcp.NewVeno()
		case Westwood:
			v = tcp.NewWestwood()
		case Jersey:
			v = tcp.NewJersey()
		case ECNNewReno:
			v = tcp.NewECNNewReno()
		case CUBIC:
			v = tcp.NewCUBIC()
		case BBRLite:
			v = tcp.NewBBRLite()
		default:
			v = tcp.NewNewReno()
		}
		if cfg.DRAIClamp && cfg.RouterAssist && f.variant() != Muzha {
			// Router-assisted hybrid: the flow's data packets carry the
			// AVBW-S option and the echoed recommendation caps the
			// window (deceleration only; see core.DRAIClamped).
			senderCfg.StampAVBW = true
			v = core.NewDRAIClamped(v)
		}
		snd, err := tcp.NewSender(s, srcNode.Send, senderCfg, v)
		if err != nil {
			return nil, fmt.Errorf("muzha: flow %d: %w", i, err)
		}
		senders[i] = snd
		if err := srcNode.Attach(snd); err != nil {
			return nil, err
		}

		dstNode := nodes[f.Dst]
		sink := tcp.NewSink(s, dstNode.Send, tcp.SinkConfig{
			FlowID:      flowID,
			Peer:        nodeID(f.Src),
			SACKEnabled: f.variant() == SACK,
			DelayedAck:  sim.FromDuration(cfg.DelayedAck),
			Invariants:  checker,
		})
		if err := dstNode.Attach(sink); err != nil {
			return nil, err
		}

		s.At(sim.FromDuration(f.Start), snd.Start)
	}

	type bgPair struct {
		src  *app.CBR
		sink *app.CBRSink
	}
	bgs := make([]bgPair, len(cfg.Background))
	for i, b := range cfg.Background {
		// Background flow IDs live above the TCP flows'.
		flowID := int32(len(cfg.Flows) + i + 1)
		size := b.PacketSize
		if size <= 0 {
			size = 512
		}
		src, err := app.NewCBR(s, nodes[b.Src].Send, app.CBRConfig{
			FlowID:     flowID,
			Dst:        nodeID(b.Dst),
			RateBps:    b.RateBps,
			PacketSize: size,
			Jitter:     0.1,
		})
		if err != nil {
			return nil, fmt.Errorf("muzha: background flow %d: %w", i, err)
		}
		if err := nodes[b.Src].Attach(src); err != nil {
			return nil, err
		}
		sink := app.NewCBRSink(s, flowID)
		if err := nodes[b.Dst].Attach(sink); err != nil {
			return nil, err
		}
		bgs[i] = bgPair{src: src, sink: sink}
		s.At(sim.FromDuration(b.Start), src.Start)
	}

	// Fault injection: the schedule was validated by cfg.validate().
	faultEvents, err := cfg.faultSchedule()
	if err != nil {
		return nil, err
	}
	controls := make([]fault.NodeControl, len(nodes))
	for i, n := range nodes {
		controls[i] = n
	}
	injector, err := fault.NewInjector(s, controls, ch, faultEvents)
	if err != nil {
		return nil, err
	}
	// Per-kind Sometimes assertions refine the single "fault-injected"
	// signal into a coverage dimension the chaos fuzzer can steer by:
	// a corpus that has crashed nodes but never partitioned the network
	// shows it. Registered in a fixed order for a deterministic report.
	someFault := checker.Sometimes("fault-injected")
	someCrash := checker.Sometimes("fault-node-crash")
	someBlackout := checker.Sometimes("fault-link-blackout")
	somePartition := checker.Sometimes("fault-partition")
	someBurst := checker.Sometimes("fault-burst-loss")
	someFinished := checker.Sometimes("flow-finished")
	injector.OnFire = func(e fault.Event, _ bool) {
		someFault.Reach()
		switch e.Kind {
		case fault.NodeCrash:
			someCrash.Reach()
		case fault.LinkBlackout:
			someBlackout.Reach()
		case fault.Partition:
			somePartition.Reach()
		case fault.BurstLoss:
			someBurst.Reach()
		}
	}
	injector.Start()

	// Periodic route-loop-freedom scan over the AODV next-hop tables.
	// DSR carries complete source routes, so there is no per-hop table
	// to walk.
	if !cfg.UseDSR {
		loopInv := checker.Always("route-loop-free")
		// One LoopScan serves the whole run: its tables are indexed by
		// node ID and reused, so a warmed scan allocates nothing. Nodes
		// are visited in ID order, as LoopScan.Add requires.
		var loops invariant.LoopScan
		var from int32
		addHop := func(dst, nh packet.NodeID) { loops.Add(from, int32(dst), int32(nh)) }
		var scan func()
		scan = func() {
			for _, n := range nodes {
				from = int32(n.ID())
				n.VisitNextHops(addHop)
			}
			loops.Check(loopInv)
			s.Schedule(loopScanPeriod, scan)
		}
		s.Schedule(loopScanPeriod, scan)
	}

	// Arm the run guards last so the watchdog's wall clock starts at the
	// first event, not at setup. Cancellation and progress share the
	// guard tick: the engine polls the Cancel channel every guard period,
	// so a close is noticed within ~1024 events, and reports progress on
	// the first tick at or past each progress period.
	var guards []func() error
	interval := uint64(0)
	if g := cfg.Guards; g.Enabled() {
		interval = g.Interval()
		guards = append(guards, harness.NewWatchdog(
			func() int64 { return int64(s.Now()) }, s.EventsExecuted, g))
	}
	if cancel := cfg.Cancel; cancel != nil {
		guards = append(guards, func() error {
			select {
			case <-cancel:
				return fmt.Errorf("%w at t=%v", harness.ErrCanceled, s.Now())
			default:
				return nil
			}
		})
	}
	if progress := cfg.Progress; progress != nil {
		// The guard only observes the run, so enabling progress cannot
		// change its outcome.
		every := uint64(defaultProgressEvery)
		if cfg.progressEvery > 0 {
			every = cfg.progressEvery
		}
		if len(guards) == 0 {
			interval = every
		}
		next := every
		guards = append(guards, func() error {
			if n := s.EventsExecuted(); n >= next {
				next = (n/every + 1) * every
				progress(ProgressUpdate{SimTime: s.Now().Duration(), Events: n})
			}
			return nil
		})
	}
	if len(guards) > 0 {
		s.SetGuard(interval, chainGuards(guards))
	}

	s.Run(duration)

	if cfg.Progress != nil {
		// Final snapshot so a streaming client always sees the terminal
		// state, even for runs shorter than one progress period.
		cfg.Progress(ProgressUpdate{SimTime: s.Now().Duration(), Events: s.EventsExecuted()})
	}

	if gerr := s.GuardErr(); gerr != nil {
		return nil, fmt.Errorf("muzha: run aborted at t=%v after %d events (seed %d): %w",
			s.Now(), s.EventsExecuted(), cfg.Seed, gerr)
	}

	res = &Result{Duration: cfg.Duration, Events: s.EventsExecuted()}
	throughputs := make([]float64, len(cfg.Flows))
	for i, f := range cfg.Flows {
		fl := flowStats[i]
		fl.End = duration
		fr := flowResult(i+1, f, fl, senders[i].Finished())
		if fr.Finished {
			someFinished.Reach()
		}
		res.Flows = append(res.Flows, fr)
		throughputs[i] = fr.ThroughputBps
	}
	res.JainIndex = stats.JainIndex(throughputs)

	for i, b := range cfg.Background {
		sent := bgs[i].src.Sent()
		recv := bgs[i].sink.Received()
		br := BackgroundResult{
			Src: b.Src, Dst: b.Dst,
			Sent: sent, Received: recv,
			MeanDelay: bgs[i].sink.MeanDelay().Duration(),
		}
		if sent > 0 {
			br.DeliveryRatio = float64(recv) / float64(sent)
		}
		res.Background = append(res.Background, br)
	}

	for i, n := range nodes {
		ns := n.Stats()
		ms := n.MACStats()
		rs := n.RouterStats()
		res.Nodes = append(res.Nodes, NodeResult{
			ID:           i,
			Forwarded:    ns.Forwarded,
			QueueDrops:   ns.QueueDrops,
			Marked:       ns.Marked,
			MACRetries:   ms.Retries,
			MACDrops:     ms.Drops,
			LinkFailures: rs.LinkFailures,
			RERRSent:     rs.RERRSent,
			Discoveries:  rs.Discoveries,
		})
	}

	for _, iv := range checker.Report() {
		res.Invariants = append(res.Invariants, InvariantResult{
			Name:       iv.Name,
			Kind:       iv.Kind,
			Checks:     iv.Checks,
			Violations: iv.Violations,
			Details:    iv.Details,
		})
	}
	res.InvariantViolations = checker.Violations()
	fs := injector.Stats()
	res.Faults = FaultStats{
		Crashes:     fs.Crashes,
		Reboots:     fs.Reboots,
		Blackouts:   fs.Blackouts,
		Restores:    fs.Restores,
		Partitions:  fs.Partitions,
		Heals:       fs.Heals,
		BurstPhases: fs.BurstPhases,
	}
	return res, nil
}
