package chaoscov

import (
	"math/rand"
	"sort"

	"muzha"
	"muzha/internal/scenario"
)

// Target names every Sometimes assertion the simulator can currently
// reach, mapped to a directed mutation that steers a spec toward it.
// The registry is what makes the loop *guided* rather than merely
// corpus-driven: when a target has never been seen, the loop applies
// its mutation instead of a blind one. Unknown future assertions cost
// nothing — they are simply discovered the old-fashioned way.
var directed = map[string]func(*rand.Rand, *scenario.Spec){
	"fault-injected":      func(rng *rand.Rand, s *scenario.Spec) { addFault(rng, s, "") },
	"fault-node-crash":    func(rng *rand.Rand, s *scenario.Spec) { addFault(rng, s, muzha.FaultNodeCrash) },
	"fault-link-blackout": func(rng *rand.Rand, s *scenario.Spec) { addFault(rng, s, muzha.FaultLinkBlackout) },
	"fault-partition":     func(rng *rand.Rand, s *scenario.Spec) { addFault(rng, s, muzha.FaultPartition) },
	"fault-burst-loss":    func(rng *rand.Rand, s *scenario.Spec) { addFault(rng, s, muzha.FaultBurstLoss) },
	// A bounded transfer on an easy path completes well within the run.
	"flow-finished": func(rng *rand.Rand, s *scenario.Spec) {
		if len(s.Flows) == 0 {
			return
		}
		s.Flows[0].MaxBytes = 8192
		s.Flows[0].StartMs = 0
	},
	// Heavy residual loss plus a crashed path forces retransmission
	// timeouts.
	"tcp-rto-timeout": func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.ResidualLossRate = 0.05
		addFault(rng, s, muzha.FaultNodeCrash)
	},
	// A one-packet queue under a full window overflows immediately.
	"queue-overflow": func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.QueueLimit = 2
		s.Stack.Window = 32
	},
	// DRAI marking fires when router assist meets a shallow queue.
	"congestion-marked": func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.NoRouterAssist = false
		s.Stack.QueueLimit = 4
		s.Stack.Window = 32
	},
	// MAC-level route breakage needs a node to disappear mid-flow.
	"link-failure-detected": func(rng *rand.Rand, s *scenario.Spec) {
		addFault(rng, s, muzha.FaultNodeCrash)
	},
}

// Targets returns the directed-mutation target names, sorted.
func Targets() []string {
	out := make([]string, 0, len(directed))
	for name := range directed {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// freshSpec generates a random scenario spec from scratch — the
// spec-level analogue of muzha.ChaosScenario, used to seed the corpus
// and to escape local optima when mutation stops finding new
// coverage. Deterministic in the rng stream.
func freshSpec(rng *rand.Rand, durationMs int64) scenario.Spec {
	s := scenario.Spec{Seed: rng.Int63n(1 << 32), DurationMs: durationMs}

	switch rng.Intn(4) {
	case 0:
		s.Topology = scenario.Topology{Kind: scenario.KindChain, Hops: 3 + rng.Intn(5)}
	case 1:
		s.Topology = scenario.Topology{Kind: scenario.KindCross, Hops: 4 + 2*rng.Intn(2)}
	case 2:
		s.Topology = scenario.Topology{Kind: scenario.KindGrid, Rows: 3, Cols: 3}
	default:
		s.Topology = scenario.Topology{Kind: scenario.KindRandom, Nodes: 6 + rng.Intn(5)}
	}
	n := s.Topology.NodeCount()

	vs := muzha.Variants()
	nflows := 1 + rng.Intn(3)
	for i := 0; i < nflows; i++ {
		src, dst := pair(rng, n)
		if i == 0 {
			// The first flow crosses the whole layout, like the
			// conventional endpoints blind chaos uses.
			src, dst = 0, n-1
		}
		s.Flows = append(s.Flows, scenario.Flow{
			Src:     src,
			Dst:     dst,
			Variant: string(vs[(rng.Intn(len(vs))+i*3)%len(vs)]),
			StartMs: rng.Int63n(durationMs/4 + 1),
			Window:  4 << rng.Intn(3),
		})
	}

	if rng.Intn(4) == 0 {
		s.Stack.UseDSR = true
	}
	if rng.Intn(4) == 0 {
		s.Stack.UseRED = true
		if rng.Intn(2) == 0 {
			s.Stack.REDMarkECN = true
		}
	}
	if rng.Intn(5) == 0 {
		s.Stack.Pacing = true
	}
	if rng.Intn(6) == 0 {
		// Router assist defaults on in fresh specs, so the hybrid
		// clamp is always a valid addition here.
		s.Stack.DRAIClamp = true
	}
	if rng.Intn(5) == 0 {
		s.Stack.NoRTSCTS = true
	}
	if rng.Intn(4) == 0 {
		s.Stack.DelayedAckMs = 100
	}
	if rng.Intn(4) == 0 {
		s.Stack.ResidualLossRate = 0.002 * float64(1+rng.Intn(5))
	}

	if rng.Intn(3) == 0 {
		src, dst := pair(rng, n)
		s.Background = append(s.Background, scenario.Background{
			Src: src, Dst: dst,
			RateBps: float64(40000 + rng.Intn(80000)),
			StartMs: durationMs / 5,
		})
	}

	nfaults := rng.Intn(3)
	for i := 0; i < nfaults; i++ {
		addFault(rng, &s, "")
	}
	return s
}

// mutators are the blind structural mutations, applied when no
// directed target is pending. Each must leave the spec valid (or
// validatable — the loop re-validates before running).
var mutators = []func(*rand.Rand, *scenario.Spec){
	func(rng *rand.Rand, s *scenario.Spec) { s.Seed = rng.Int63n(1 << 32) },
	func(rng *rand.Rand, s *scenario.Spec) { addFault(rng, s, "") },
	func(rng *rand.Rand, s *scenario.Spec) {
		if len(s.Faults) > 0 {
			i := rng.Intn(len(s.Faults))
			s.Faults = append(s.Faults[:i], s.Faults[i+1:]...)
		}
	},
	func(rng *rand.Rand, s *scenario.Spec) {
		n := s.Topology.NodeCount()
		if n < 2 || len(s.Flows) >= 4 {
			return
		}
		src, dst := pair(rng, n)
		vs := muzha.Variants()
		s.Flows = append(s.Flows, scenario.Flow{
			Src: src, Dst: dst,
			Variant: string(vs[rng.Intn(len(vs))]),
			StartMs: rng.Int63n(s.DurationMs/4 + 1),
			Window:  4 << rng.Intn(3),
		})
	},
	func(rng *rand.Rand, s *scenario.Spec) {
		if len(s.Flows) > 1 {
			i := rng.Intn(len(s.Flows))
			s.Flows = append(s.Flows[:i], s.Flows[i+1:]...)
		}
	},
	func(rng *rand.Rand, s *scenario.Spec) { s.Stack.QueueLimit = 2 + rng.Intn(49) },
	func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.UseRED = !s.Stack.UseRED
		if !s.Stack.UseRED {
			// ECN marking requires use_red; clear it so the mutated
			// spec stays valid.
			s.Stack.REDMarkECN = false
		}
	},
	func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.UseRED = true
		s.Stack.REDMarkECN = !s.Stack.REDMarkECN
	},
	func(rng *rand.Rand, s *scenario.Spec) { s.Stack.Pacing = !s.Stack.Pacing },
	func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.DRAIClamp = !s.Stack.DRAIClamp
		if s.Stack.DRAIClamp {
			// The clamp requires router assist; re-enable it so the
			// mutated spec stays valid.
			s.Stack.NoRouterAssist = false
		}
	},
	func(rng *rand.Rand, s *scenario.Spec) { s.Stack.UseDSR = !s.Stack.UseDSR },
	func(rng *rand.Rand, s *scenario.Spec) {
		s.Stack.ResidualLossRate = 0.002 * float64(rng.Intn(6))
	},
	func(rng *rand.Rand, s *scenario.Spec) {
		n := s.Topology.NodeCount()
		if s.Mobility != nil {
			s.Mobility = nil
			return
		}
		s.Mobility = &scenario.Mobility{
			Width: 1500, Height: 1500,
			MinSpeed: 1, MaxSpeed: 2 + float64(rng.Intn(8)),
			PauseMs: 1000,
			Nodes:   []int{rng.Intn(n)},
		}
	},
	func(rng *rand.Rand, s *scenario.Spec) {
		if len(s.Flows) > 0 {
			i := rng.Intn(len(s.Flows))
			if s.Flows[i].MaxBytes == 0 {
				s.Flows[i].MaxBytes = int64(8192 * (1 + rng.Intn(8)))
			} else {
				s.Flows[i].MaxBytes = 0
			}
		}
	},
}

// mutate applies 1-2 blind mutations to a copy of the parent spec.
func mutate(rng *rand.Rand, parent scenario.Spec) scenario.Spec {
	s := cloneSpec(parent)
	for i := 0; i <= rng.Intn(2); i++ {
		mutators[rng.Intn(len(mutators))](rng, &s)
	}
	return s
}

// mutateToward copies the parent and applies the directed mutation
// for target (falling back to a blind mutation for unknown names).
func mutateToward(rng *rand.Rand, parent scenario.Spec, target string) scenario.Spec {
	s := cloneSpec(parent)
	if m, ok := directed[target]; ok {
		m(rng, &s)
		return s
	}
	mutators[rng.Intn(len(mutators))](rng, &s)
	return s
}

// cloneSpec deep-copies a spec so mutations never alias corpus state.
func cloneSpec(s scenario.Spec) scenario.Spec {
	c := s
	c.Flows = append([]scenario.Flow(nil), s.Flows...)
	c.Background = append([]scenario.Background(nil), s.Background...)
	c.Faults = make([]scenario.Fault, len(s.Faults))
	for i, f := range s.Faults {
		c.Faults[i] = f
		if len(f.Groups) > 0 {
			c.Faults[i].Groups = make([][]int, len(f.Groups))
			for j, g := range f.Groups {
				c.Faults[i].Groups[j] = append([]int(nil), g...)
			}
		}
	}
	if s.Mobility != nil {
		m := *s.Mobility
		m.Nodes = append([]int(nil), s.Mobility.Nodes...)
		c.Mobility = &m
	}
	if s.Expect != nil {
		e := *s.Expect
		e.Reach = append([]string(nil), s.Expect.Reach...)
		c.Expect = &e
	}
	if s.Guards != nil {
		g := *s.Guards
		c.Guards = &g
	}
	return c
}

// addFault appends one fault of the given kind ("" = random) in the
// middle third of the run.
func addFault(rng *rand.Rand, s *scenario.Spec, kind muzha.FaultKind) {
	durMs := s.DurationMs
	if durMs <= 0 {
		durMs = 3000
	}
	n := s.Topology.NodeCount()
	if n < 2 {
		return
	}
	if kind == "" {
		kinds := []muzha.FaultKind{
			muzha.FaultNodeCrash, muzha.FaultLinkBlackout,
			muzha.FaultPartition, muzha.FaultBurstLoss,
		}
		kind = kinds[rng.Intn(len(kinds))]
	}
	f := scenario.Fault{
		Kind:       string(kind),
		AtMs:       durMs/10 + rng.Int63n(durMs/2+1),
		DurationMs: durMs/8 + rng.Int63n(durMs/4+1),
	}
	switch kind {
	case muzha.FaultNodeCrash:
		f.Node = rng.Intn(n)
	case muzha.FaultLinkBlackout:
		f.LinkA, f.LinkB = pair(rng, n)
	case muzha.FaultPartition:
		k := 1 + rng.Intn(n-1)
		group := make([]int, k)
		for j := range group {
			group[j] = j
		}
		f.Groups = [][]int{group}
	case muzha.FaultBurstLoss:
		f.BadLossRate = 0.5 + 0.4*rng.Float64()
		f.MeanBurstFrames = float64(4 + rng.Intn(12))
		f.MeanGapFrames = float64(100 + rng.Intn(200))
	}
	s.Faults = append(s.Faults, f)
}

// pair picks two distinct node IDs.
func pair(rng *rand.Rand, n int) (int, int) {
	src := rng.Intn(n)
	dst := rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}
