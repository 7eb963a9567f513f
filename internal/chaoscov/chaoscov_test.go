package chaoscov

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"muzha"
	"muzha/internal/scenario"
)

func TestSignatureOrderInsensitive(t *testing.T) {
	a := Signature([]string{"x", "y"}, "panic")
	b := Signature([]string{"y", "x"}, "panic")
	if a != b {
		t.Fatalf("element order changed the signature: %s vs %s", a, b)
	}
	if Signature([]string{"x"}, "") == Signature([]string{"x"}, "panic") {
		t.Fatal("failure class not part of the signature")
	}
	if Signature([]string{"x"}, "") == Signature([]string{"y"}, "") {
		t.Fatal("different coverage shares a signature")
	}
}

func specFixture(seed int64) scenario.Spec {
	return scenario.Spec{
		Seed:       seed,
		DurationMs: 1000,
		Topology:   scenario.Topology{Kind: scenario.KindChain, Hops: 3},
		Flows:      []scenario.Flow{{Src: 0, Dst: 3}},
	}
}

func TestCorpusDedupeAndFrontier(t *testing.T) {
	c, err := OpenCorpus("")
	if err != nil {
		t.Fatal(err)
	}
	e1, added, err := c.Add(specFixture(1), -1, []string{"a", "b"}, "")
	if err != nil || !added {
		t.Fatalf("first add: added=%v err=%v", added, err)
	}
	if len(e1.New) != 2 {
		t.Fatalf("first entry's New = %v, want both elements", e1.New)
	}
	// Same coverage signature from a different spec: dropped.
	if _, added, _ := c.Add(specFixture(2), -1, []string{"b", "a"}, ""); added {
		t.Fatal("duplicate signature joined the corpus")
	}
	// Superset coverage: new signature, one new element.
	e2, added, _ := c.Add(specFixture(3), 0, []string{"a", "b", "c"}, "livelock")
	if !added || len(e2.New) != 2 { // "c" and "class:livelock"
		t.Fatalf("superset add: added=%v New=%v", added, e2.New)
	}
	// Known elements in a new combination: new signature, nothing new.
	e3, added, _ := c.Add(specFixture(4), 0, []string{"c"}, "")
	if !added || len(e3.New) != 0 {
		t.Fatalf("recombination add: added=%v New=%v", added, e3.New)
	}
	if got := c.Frontier(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("frontier = %v, want the two coverage-expanding entries", got)
	}
	if got := c.SometimesCoverage(); len(got) != 3 {
		t.Fatalf("coverage = %v", got)
	}
	if got := c.Classes(); len(got) != 1 || got[0] != "livelock" {
		t.Fatalf("classes = %v", got)
	}
}

// tearTail appends a partial line to the corpus at path, as a loop
// killed mid-append leaves it, and returns the file's new contents.
func tearTail(t *testing.T, path, partial string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, partial...)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCorpusPersistAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	c, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(specFixture(1), -1, []string{"a"}, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(specFixture(2), 0, []string{"a", "b"}, "panic"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: a truncated third line.
	tearTail(t, path, `{"id": 2, "spec": {"seed`)

	r, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("resume after truncation: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("resumed %d entries, want 2", r.Len())
	}
	if r.Skipped() != 1 {
		t.Fatalf("skipped %d lines, want the truncated one", r.Skipped())
	}
	if got := r.SometimesCoverage(); len(got) != 2 {
		t.Fatalf("resumed coverage = %v", got)
	}
	if !r.Seen("class:panic") {
		t.Fatal("resumed corpus lost the failure class")
	}
	// Adding the same signatures after resume still dedupes.
	if _, added, _ := r.Add(specFixture(9), -1, []string{"a", "b"}, "panic"); added {
		t.Fatal("resume forgot a journaled signature")
	}
	// An entry added after the truncated line survives the next resume.
	if _, added, err := r.Add(specFixture(3), 1, []string{"a", "c"}, ""); err != nil || !added {
		t.Fatalf("add after resume: added=%v err=%v", added, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 3 || r2.Skipped() != 1 || !r2.Seen("c") {
		t.Fatalf("second resume: %d entries, %d skipped, seen c=%v; want 3 / 1 / true",
			r2.Len(), r2.Skipped(), r2.Seen("c"))
	}
}

// loopGuards bounds test runs tightly so a pathological mutant cannot
// stall the suite.
var loopGuards = muzha.RunGuards{WallClock: time.Minute, MaxEvents: 20_000_000, LivelockWindow: 5_000_000}

// TestShrinkProducesStrictlySmallerReproducer is the shrink acceptance
// test: the seeded failing scenario must shrink to a reproducer with
// strictly fewer nodes+flows+faults that still triggers the same
// failure class.
func TestShrinkProducesStrictlySmallerReproducer(t *testing.T) {
	spec, err := scenario.Load(filepath.Join("testdata", "event-budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, class, _ := RunSpec(spec, loopGuards)
	if class != muzha.ClassEventBudget {
		t.Fatalf("seeded spec failed with class %q, want %q", class, muzha.ClassEventBudget)
	}

	sr := Shrink(spec, class, loopGuards, t.Logf)
	size := func(s scenario.Spec) int {
		return s.Topology.NodeCount() + len(s.Flows) + len(s.Faults)
	}
	before, after := size(spec), size(sr.Spec)
	if after >= before {
		t.Fatalf("shrink did not reduce the scenario: %d -> %d", before, after)
	}
	if sr.Steps == 0 {
		t.Fatal("no reduction steps accepted")
	}

	// The reproducer must still fail the same way, and its expect block
	// must make the file self-verifying.
	res, got, _ := RunSpec(sr.Spec, loopGuards)
	if got != class {
		t.Fatalf("reproducer failed with class %q, want %q", got, class)
	}
	if sr.Spec.Expect == nil || sr.Spec.Expect.Class != class {
		t.Fatalf("reproducer's expect block = %+v", sr.Spec.Expect)
	}
	if err := scenario.CheckExpect(sr.Spec, res, got); err != nil {
		t.Fatalf("reproducer is not self-verifying: %v", err)
	}
}

func TestShrinkReturnsNondeterministicUnshrunk(t *testing.T) {
	spec := specFixture(1)
	sr := Shrink(spec, muzha.ClassNonDeterministic, loopGuards, nil)
	if sr.Runs != 0 || sr.Steps != 0 {
		t.Fatalf("nondeterministic failure was shrunk: %+v", sr)
	}
}

// TestGuidedBeatsBlindAtEqualBudget is the guidance acceptance test:
// with the same run budget and deterministic seeds, the coverage-guided
// loop must reach a strict superset of the distinct Sometimes
// assertions that blind iteration over muzha.ChaosScenario seeds
// reaches, on every seed tried.
func TestGuidedBeatsBlindAtEqualBudget(t *testing.T) {
	const budget = 12
	const dur = 2 * time.Second

	for seed := int64(1); seed <= 5; seed++ {
		blind := make(map[string]bool)
		for i := int64(0); i < budget; i++ {
			cfg, _, err := muzha.ChaosScenario(seed+i, dur)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Guards = loopGuards
			res, err := muzha.Run(cfg)
			if err != nil {
				t.Fatalf("blind seed %d: %v", seed+i, err)
			}
			for _, name := range res.SometimesCoverage() {
				blind[name] = true
			}
		}

		rep, err := Loop(Options{
			Seed:     seed,
			Runs:     budget,
			Duration: dur,
			Guards:   loopGuards,
		})
		if err != nil {
			t.Fatalf("seed %d: guided loop: %v", seed, err)
		}
		guided := make(map[string]bool)
		for _, name := range rep.Coverage {
			guided[name] = true
		}
		for name := range blind {
			if !guided[name] {
				t.Errorf("seed %d: blind iteration reached %s, the guided loop did not", seed, name)
			}
		}
		if len(guided) <= len(blind) {
			t.Errorf("seed %d: guided coverage (%d: %v) not strictly above blind (%d: %v) at %d runs",
				seed, len(guided), rep.Coverage, len(blind), keys(blind), budget)
		}
		// The structural reason guidance wins: blind generation never
		// bounds a transfer, so flow-finished is unreachable for it by
		// construction.
		if blind["flow-finished"] {
			t.Errorf("seed %d: blind chaos reached flow-finished; the directed-mutation premise is stale", seed)
		}
		// Seed 3 pins that directed mutation reaches that target; at this
		// budget seeds 2-5 reach it, and seed 1 gains queue-overflow only.
		if seed == 3 && !guided["flow-finished"] {
			t.Errorf("seed %d: guided loop missed its directed target flow-finished", seed)
		}
		// Cumulative coverage history must be monotonically non-decreasing.
		for i := 1; i < len(rep.History); i++ {
			if rep.History[i] < rep.History[i-1] {
				t.Fatalf("seed %d: coverage history decreased at run %d: %v", seed, i, rep.History)
			}
		}
		var extra []string
		for _, name := range rep.Coverage {
			if !blind[name] {
				extra = append(extra, name)
			}
		}
		t.Logf("seed %d: blind %d, guided %d assertions; guided only: %v", seed, len(blind), len(guided), extra)
	}
}

// TestLoopFlagsDivergentReplay swaps in a run function whose replay
// returns a different Result: the loop must fail the run as
// nondeterministic, the class muzhasim exits 3 for.
func TestLoopFlagsDivergentReplay(t *testing.T) {
	orig := runSpec
	defer func() { runSpec = orig }()
	calls := 0
	runSpec = func(s scenario.Spec, g muzha.RunGuards) (*muzha.Result, string, error) {
		res, class, err := orig(s, g)
		if calls++; calls%2 == 0 && res != nil {
			res.Events++
		}
		return res, class, err
	}

	var lines []string
	rep, err := Loop(Options{Seed: 3, Runs: 1, Duration: time.Second, Guards: loopGuards,
		Logf: func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("loop ran the spec %d times, want 2", calls)
	}
	if rep.Failures != 1 || len(rep.Classes) != 1 || rep.Classes[0] != muzha.ClassNonDeterministic {
		t.Fatalf("failures=%d classes=%v, want one %s failure", rep.Failures, rep.Classes, muzha.ClassNonDeterministic)
	}
	if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, "results differ between identical runs") }) {
		t.Fatalf("divergence cause missing from the log:\n%s", strings.Join(lines, "\n"))
	}
}

// TestLoopNamesViolatedInvariants: an invariant failure's log line
// names the violated Always assertions, not a nil error.
func TestLoopNamesViolatedInvariants(t *testing.T) {
	spec, err := scenario.Load(filepath.Join("testdata", "snduna-past-sndnxt.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, class, runErr := runTwice(spec, loopGuards)
	if class != muzha.ClassInvariant {
		t.Fatalf("class = %q (err %v), want %s", class, runErr, muzha.ClassInvariant)
	}
	if got := failureCause(res, runErr); !strings.HasPrefix(got, "violated=tcp-snduna-monotone(x") {
		t.Fatalf("failure cause = %q, want the violated assertion", got)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestLoopResumesFromCorpus verifies kill-and-resume: a second loop on
// the same corpus file starts from the first loop's coverage and the
// journal dedupes across process lifetimes.
func TestLoopResumesFromCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	rep1, err := Loop(Options{Seed: 3, Runs: 4, Duration: 2 * time.Second, CorpusPath: path, Guards: loopGuards})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Loop(Options{Seed: 4, Runs: 4, Duration: 2 * time.Second, CorpusPath: path, Guards: loopGuards})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Coverage) < len(rep1.Coverage) {
		t.Fatalf("resumed loop lost coverage: %v -> %v", rep1.Coverage, rep2.Coverage)
	}
	if len(rep2.History) > 0 && rep2.History[0] < len(rep1.Coverage) {
		t.Fatalf("resumed loop's first history point %d below prior coverage %d",
			rep2.History[0], len(rep1.Coverage))
	}
}

func TestLoopWritesRepro(t *testing.T) {
	dir := t.TempDir()
	// Seed the loop's first fresh spec deterministically tiny and broken
	// is hard; instead shrink the committed failing spec through the
	// loop's writer path directly.
	spec, err := scenario.Load(filepath.Join("testdata", "event-budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	path, err := shrinkAndWrite(spec, muzha.ClassEventBudget,
		Options{Guards: loopGuards, ReproDir: dir}, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Load(path)
	if err != nil {
		t.Fatalf("repro file unreadable: %v", err)
	}
	if got.Expect == nil || got.Expect.Class != muzha.ClassEventBudget {
		t.Fatalf("repro expect block = %+v", got.Expect)
	}
	res, class, _ := RunSpec(got, loopGuards)
	if err := scenario.CheckExpect(got, res, class); err != nil {
		t.Fatalf("written repro does not verify: %v", err)
	}
}
