package chaoscov

import (
	"fmt"

	"muzha"
	"muzha/internal/scenario"
)

// RunSpec executes one spec. When the spec carries no Guards block the
// fallback guards bound the run, so a shrink candidate that livelocks
// cannot hang the shrinker.
func RunSpec(s scenario.Spec, fallback muzha.RunGuards) (*muzha.Result, string, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, muzha.ClassError, err
	}
	if s.Guards == nil {
		cfg.Guards = fallback
	}
	res, err := muzha.Run(cfg)
	return res, muzha.ClassifyRun(res, err), err
}

// ShrinkResult reports one shrink session.
type ShrinkResult struct {
	// Spec is the minimized reproducer, with Expect.Class set to the
	// reproduced failure class so the file is self-verifying.
	Spec scenario.Spec
	// Class is the failure class every accepted step reproduced.
	Class string
	// Steps counts accepted reductions; 0 means the input was already
	// minimal (or the budget ran out before any candidate reproduced).
	Steps int
	// Runs counts simulations executed while shrinking.
	Runs int
}

// shrinkRuns bounds the simulations Shrink spends minimizing one
// failure.
const shrinkRuns = 200

// Shrink greedily minimizes a failing spec while preserving its
// failure class: at each step it tries, in deterministic order,
// dropping a fault, dropping a flow, dropping background load and
// mobility, shaving a node off the topology, and halving the
// duration. The first candidate that still fails with the same class
// becomes the new spec; the process repeats until no candidate
// reproduces (a fixpoint) or shrinkRuns simulations have been spent.
//
// Every candidate is validated before running — a reduction that
// breaks spec validity (a flow endpoint beyond the smaller topology)
// is skipped, not repaired, keeping each accepted step an exact
// sub-scenario of its predecessor. Nondeterministic failures are
// returned unshrunk: by definition the class is not stable under
// re-execution, so greedy reduction has nothing to anchor on.
//
// logf, when non-nil, receives one line per accepted reduction.
func Shrink(s scenario.Spec, class string, guards muzha.RunGuards, logf func(format string, args ...any)) ShrinkResult {
	out := ShrinkResult{Spec: cloneSpec(s), Class: class}
	if class == "" || class == muzha.ClassNonDeterministic {
		finish(&out)
		return out
	}
	for {
		accepted := false
		for _, cand := range candidates(out.Spec) {
			if out.Runs >= shrinkRuns {
				finish(&out)
				return out
			}
			if cand.spec.Validate() != nil {
				continue
			}
			out.Runs++
			_, got, _ := RunSpec(cand.spec, guards)
			if got != class {
				continue
			}
			out.Spec = cand.spec
			out.Steps++
			accepted = true
			if logf != nil {
				logf("shrink step %d: %s (%s)", out.Steps, cand.desc, out.Spec.Summary())
			}
			break // restart the candidate scan from the smaller spec
		}
		if !accepted {
			finish(&out)
			return out
		}
	}
}

// finish stamps the reproducer's self-verifying expectation.
func finish(out *ShrinkResult) {
	if out.Class == "" {
		return
	}
	out.Spec.Expect = &scenario.Expect{Class: out.Class}
}

type candidate struct {
	spec scenario.Spec
	desc string
}

// candidates enumerates the one-step reductions of s, most aggressive
// first (structure before duration), each on its own deep copy.
func candidates(s scenario.Spec) []candidate {
	var out []candidate
	for i := range s.Faults {
		c := cloneSpec(s)
		c.Faults = append(c.Faults[:i], c.Faults[i+1:]...)
		if len(c.Faults) == 0 {
			c.Faults = nil
		}
		out = append(out, candidate{c, fmt.Sprintf("drop fault %d (%s)", i, s.Faults[i].Kind)})
	}
	for i := range s.Flows {
		if len(s.Flows) == 1 {
			break // a runnable config needs at least one flow
		}
		c := cloneSpec(s)
		c.Flows = append(c.Flows[:i], c.Flows[i+1:]...)
		out = append(out, candidate{c, fmt.Sprintf("drop flow %d", i)})
	}
	if len(s.Background) > 0 {
		c := cloneSpec(s)
		c.Background = nil
		out = append(out, candidate{c, "drop background load"})
	}
	if s.Mobility != nil {
		c := cloneSpec(s)
		c.Mobility = nil
		out = append(out, candidate{c, "drop mobility"})
	}
	if t, ok := smallerTopology(s.Topology); ok {
		c := cloneSpec(s)
		c.Topology = t
		clampNodes(&c)
		out = append(out, candidate{c, fmt.Sprintf("shrink topology to %d nodes", t.NodeCount())})
	}
	if d := s.Duration().Milliseconds(); d > 1000 {
		c := cloneSpec(s)
		c.DurationMs = d / 2
		if c.DurationMs < 1000 {
			c.DurationMs = 1000
		}
		out = append(out, candidate{c, fmt.Sprintf("halve duration to %dms", c.DurationMs)})
	}
	return out
}

// smallerTopology returns the same topology kind one node (or one
// grid line) smaller, or ok=false at the minimum size.
func smallerTopology(t scenario.Topology) (scenario.Topology, bool) {
	switch t.Kind {
	case scenario.KindChain:
		if t.Hops > 1 {
			t.Hops--
			return t, true
		}
	case scenario.KindCross:
		if t.Hops > 2 {
			t.Hops -= 2 // cross arms must stay even
			return t, true
		}
	case scenario.KindGrid:
		switch {
		case t.Rows >= t.Cols && t.Rows > 1:
			t.Rows--
			return t, true
		case t.Cols > 1:
			t.Cols--
			return t, true
		}
	case scenario.KindRandom:
		if t.Nodes > 2 {
			t.Nodes--
			return t, true
		}
	}
	return t, false
}

// clampNodes remaps node references onto the (smaller) topology so a
// shrink candidate stays parseable; candidates whose semantics the
// clamp would distort are weeded out by the reproduce check.
func clampNodes(s *scenario.Spec) {
	n := s.Topology.NodeCount()
	if n < 2 {
		return
	}
	clamp := func(id int) int {
		if id >= n {
			return n - 1
		}
		if id < 0 {
			return 0
		}
		return id
	}
	for i := range s.Flows {
		s.Flows[i].Src = clamp(s.Flows[i].Src)
		s.Flows[i].Dst = clamp(s.Flows[i].Dst)
		if s.Flows[i].Src == s.Flows[i].Dst {
			s.Flows[i].Src = 0
			s.Flows[i].Dst = n - 1
		}
	}
	for i := range s.Background {
		s.Background[i].Src = clamp(s.Background[i].Src)
		s.Background[i].Dst = clamp(s.Background[i].Dst)
		if s.Background[i].Src == s.Background[i].Dst {
			s.Background[i].Src = 0
			s.Background[i].Dst = n - 1
		}
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		f.Node = clamp(f.Node)
		if f.Kind == string(muzha.FaultLinkBlackout) {
			f.LinkA = clamp(f.LinkA)
			f.LinkB = clamp(f.LinkB)
			if f.LinkA == f.LinkB {
				f.LinkA = 0
				f.LinkB = n - 1
			}
		}
		for j, g := range f.Groups {
			var kept []int
			seen := make(map[int]bool)
			for _, id := range g {
				if id < n && !seen[id] {
					kept = append(kept, id)
					seen[id] = true
				}
			}
			f.Groups[j] = kept
		}
	}
	if s.Mobility != nil {
		var kept []int
		seen := make(map[int]bool)
		for _, id := range s.Mobility.Nodes {
			id = clamp(id)
			if !seen[id] {
				kept = append(kept, id)
				seen[id] = true
			}
		}
		s.Mobility.Nodes = kept
		if len(kept) == 0 {
			s.Mobility = nil
		}
	}
}
