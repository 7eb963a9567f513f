package muzha

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSampleTraceHoldsLastValue(t *testing.T) {
	trace := []Sample{
		{At: 0, Value: 1},
		{At: 300 * time.Millisecond, Value: 2},
		{At: 1200 * time.Millisecond, Value: 5},
	}
	got := SampleTrace(trace, 500*time.Millisecond, 2*time.Second)
	want := []float64{1, 2, 2, 5, 5} // t = 0, 0.5, 1.0, 1.5, 2.0
	if len(got) != len(want) {
		t.Fatalf("samples = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Value != want[i] {
			t.Fatalf("sample %d = %g, want %g (full: %+v)", i, got[i].Value, want[i], got)
		}
		if got[i].At != time.Duration(i)*500*time.Millisecond {
			t.Fatalf("sample %d timestamp = %v", i, got[i].At)
		}
	}
}

func TestSampleTraceExactTickBoundary(t *testing.T) {
	trace := []Sample{
		{At: 0, Value: 1},
		{At: 500 * time.Millisecond, Value: 3},
	}
	got := SampleTrace(trace, 500*time.Millisecond, 500*time.Millisecond)
	// A change exactly at the tick is visible at that tick.
	if len(got) != 2 || got[1].Value != 3 {
		t.Fatalf("boundary sampling = %+v", got)
	}
}

func TestSampleTraceDegenerate(t *testing.T) {
	if SampleTrace(nil, time.Second, 5*time.Second) != nil {
		t.Fatal("empty trace should sample to nil")
	}
	if SampleTrace([]Sample{{At: 0, Value: 1}}, 0, time.Second) != nil {
		t.Fatal("zero step should sample to nil")
	}
}

func TestDefaultChainSweepMatchesPaper(t *testing.T) {
	s := DefaultChainSweep()
	if len(s.Windows) != 3 || s.Windows[0] != 4 || s.Windows[2] != 32 {
		t.Fatalf("windows = %v, paper uses 4/8/32", s.Windows)
	}
	if s.Hops[0] != 4 || s.Hops[len(s.Hops)-1] != 32 {
		t.Fatalf("hops = %v, paper sweeps 4..32", s.Hops)
	}
	if s.Duration != 30*time.Second {
		t.Fatalf("duration = %v, paper runs 30 s", s.Duration)
	}
	if len(s.Variants) != 4 {
		t.Fatalf("variants = %v", s.Variants)
	}
}

// rowsOf runs one experiment and returns its rows.
func rowsOf[R any](t testing.TB, exp *Experiment, err error, opt SweepOptions) []R {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunExperiments([]*Experiment{exp}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0].Rows.([]R)
}

func TestThroughputVsHopsSmall(t *testing.T) {
	exp, err := ThroughputVsHops(ChainSweepConfig{
		Windows:  []int{4},
		Hops:     []int{2},
		Variants: []Variant{NewReno, Muzha},
		Duration: 2 * time.Second,
		// Seeds deliberately empty: the sweep must default to one seed.
	})
	rows := rowsOf[ChainRow](t, exp, err, SweepOptions{})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Seeds != 1 {
			t.Fatalf("default seeds = %d, want 1", r.Seeds)
		}
		if r.ThroughputBps <= 0 {
			t.Fatalf("row without throughput: %+v", r)
		}
	}
}

func TestCoexistenceFairnessSmall(t *testing.T) {
	exp, err := CoexistenceFairness([]int{4}, [][2]Variant{{NewReno, Muzha}}, 2*time.Second, nil)
	rows := rowsOf[FairnessRow](t, exp, err, SweepOptions{})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.JainIndex <= 0 || r.JainIndex > 1 {
		t.Fatalf("Jain = %g", r.JainIndex)
	}
	if r.ThroughputBps[0] <= 0 && r.ThroughputBps[1] <= 0 {
		t.Fatal("both flows idle")
	}
}

func TestCwndTracesDriver(t *testing.T) {
	exp, err := CwndTraces([]int{2}, []Variant{Vegas}, 2*time.Second, 1)
	out := rowsOf[CwndTraceResult](t, exp, err, SweepOptions{})
	if len(out) != 1 || out[0].Hops != 2 || out[0].Variant != Vegas {
		t.Fatalf("traces = %+v", out)
	}
	if len(out[0].Trace) == 0 {
		t.Fatal("empty cwnd trace")
	}
}

func TestExperimentDriverErrors(t *testing.T) {
	if _, err := ThroughputVsHops(ChainSweepConfig{
		Windows: []int{4}, Hops: []int{0},
		Variants: []Variant{NewReno}, Duration: time.Second,
	}); err == nil {
		t.Fatal("invalid hop count accepted")
	}
	if _, err := CoexistenceFairness([]int{3}, [][2]Variant{{NewReno, Vegas}}, time.Second, nil); err == nil {
		t.Fatal("odd cross hop count accepted")
	}
	if _, err := CwndTraces([]int{-1}, []Variant{Vegas}, time.Second, 1); err == nil {
		t.Fatal("negative hops accepted")
	}
}

// TestSharedCellsRunOnce: the throughput and retransmission figures
// list the same cells, so running them together must run each distinct
// cell once (the journal gets one line per run), and each must reduce
// to the rows it gives when run alone.
func TestSharedCellsRunOnce(t *testing.T) {
	sweep := ChainSweepConfig{
		Windows:  []int{4},
		Hops:     []int{2},
		Variants: []Variant{NewReno, Muzha},
		Duration: 2 * time.Second,
		Seeds:    []int64{1},
	}
	build := func() []*Experiment {
		return []*Experiment{must(ThroughputVsHops(sweep)), must(RetransmissionsVsHops(sweep))}
	}
	journal := filepath.Join(t.TempDir(), "runs.jsonl")
	both, err := RunExperiments(build(), SweepOptions{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if runs := strings.Count(string(raw), "\n"); runs != 2 {
		t.Fatalf("two experiments over 2 distinct cells ran %d times, want 2", runs)
	}
	for i, exp := range build() {
		alone, err := RunExperiments([]*Experiment{exp}, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(both[i].Rows, alone[0].Rows) || !slices.Equal(both[i].Text, alone[0].Text) {
			t.Fatalf("%s: shared rows differ from a lone run:\nshared: %+v\nalone:  %+v", exp.Name, both[i].Rows, alone[0].Rows)
		}
	}
}

// TestRegistryShape: the registry's 20 families have distinct names,
// its claim checks distinct IDs, and a check carries a reason exactly
// when it is expected to diverge.
func TestRegistryShape(t *testing.T) {
	names, ids := make(map[string]bool), make(map[string]bool)
	for _, e := range Registry() {
		names[e.Name] = true
		for _, c := range e.claims {
			if ids[c.ID] || (c.Expect == Diverges) != (c.Reason != "") {
				t.Fatalf("claim %s: a duplicate ID, or a reason that does not go with its expected status", c.ID)
			}
			ids[c.ID] = true
		}
	}
	if len(names) != 20 {
		t.Fatalf("%d distinct family names, want 20", len(names))
	}
}
