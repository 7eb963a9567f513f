package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"muzha"
)

// configHashes sets a workload up and returns the hashes of the configs
// its op list submits (for muzhad-mix, the first 400 ops per client).
func configHashes(t *testing.T, name string, seed int64) []string {
	t.Helper()
	inst, err := workloads[name](options{seed: seed, workDir: t.TempDir()}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	var cfgs []muzha.Config
	switch in := inst.(type) {
	case *simInstance:
		cfgs = in.cfgs
	case *mixInstance:
		for _, cl := range in.clients {
			for _, op := range cl.ops[:400] {
				cfgs = append(cfgs, in.config(op))
			}
		}
	}
	out := make([]string, len(cfgs))
	for i := range cfgs {
		if out[i], err = cfgs[i].Hash(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestOpListIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := configHashes(t, name, 7), configHashes(t, name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two set-ups from seed 7 gave different configs", name)
		}
		if reflect.DeepEqual(a, configHashes(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

func TestPaperChainsCellSetDoesNotDependOnTheSeed(t *testing.T) {
	cells := func(seed int64) []string {
		inst, err := setupPaperChains(options{seed: seed}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, cfg := range inst.(*simInstance).cfgs {
			out = append(out, fmt.Sprintf("w=%d/%s/%s/%v", cfg.Window, cfg.Topology.Name(), cfg.Flows[0].Variant, cfg.Duration))
		}
		sort.Strings(out)
		return out
	}
	a := cells(1)
	if len(a) != 72 {
		t.Fatalf("one pass has %d cells, want the 72 of Simulation 2", len(a))
	}
	if b := cells(99); !reflect.DeepEqual(a, b) {
		t.Errorf("cell set changed with the seed:\n%v\n%v", a, b)
	}
}

func TestMixHitColdSplitIsExact(t *testing.T) {
	const templates = 24
	seen := map[[2]int64]bool{}
	for c := 0; c < mixClients; c++ {
		ops := mixOps(3, c, templates)
		if !ops[0].cold {
			t.Fatalf("client %d: first op is a hit", c)
		}
		var colds []mixOp
		for i, op := range ops {
			if i%mixBlock == 0 && i+mixBlock <= len(ops) {
				hits := 0
				for _, o := range ops[i : i+mixBlock] {
					if !o.cold {
						hits++
					}
				}
				if hits != mixHitsPerBlock {
					t.Fatalf("client %d block at %d has %d hits, want %d", c, i, hits, mixHitsPerBlock)
				}
			}
			if !op.cold {
				if op.ref >= len(colds) || colds[op.ref].tmpl != op.tmpl || colds[op.ref].seed != op.seed {
					t.Fatalf("client %d op %d re-submits something its client never ran", c, i)
				}
				continue
			}
			key := [2]int64{int64(op.tmpl), op.seed}
			if seen[key] {
				t.Fatalf("client %d op %d: cold config repeats, so it would be a hit", c, i)
			}
			seen[key] = true
			colds = append(colds, op)
		}
		for start := 0; start+templates <= len(colds); start += templates {
			cycle := map[int]bool{}
			for _, op := range colds[start : start+templates] {
				cycle[op.tmpl] = true
			}
			if len(cycle) != templates {
				t.Fatalf("client %d cycle at cold %d covers %d of %d templates", c, start, len(cycle), templates)
			}
		}
	}
}

// TestScreenMixPool re-screens every muzhad-mix pool entry and fails,
// printing the list, if mixUnsafe differs from what the runs show. It
// runs 24 x 1000 simulations (several minutes on two cores), so only
// with PERFBENCH_SCREEN=1.
func TestScreenMixPool(t *testing.T) {
	if os.Getenv("PERFBENCH_SCREEN") != "1" {
		t.Skip("set PERFBENCH_SCREEN=1 to screen the muzhad-mix pools")
	}
	tmpls, err := mixTemplates(false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ t, k int }
	jobs := make(chan entry)
	var mu sync.Mutex
	got := map[int][]int{}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range jobs {
				cfg := tmpls[e.t]
				cfg.Seed = poolSeed(e.t, e.k)
				if _, _, err := runOp(cfg, nil, 0, 0); err != nil {
					mu.Lock()
					got[e.t] = append(got[e.t], e.k)
					mu.Unlock()
				}
			}
		}()
	}
	for ti := range tmpls {
		for k := 0; k < mixPool; k++ {
			jobs <- entry{ti, k}
		}
	}
	jobs <- entry{0, mixPool}
	close(jobs)
	wg.Wait()
	var b strings.Builder
	for ti := range tmpls {
		if ks := got[ti]; len(ks) > 0 {
			sort.Ints(ks)
			fmt.Fprintf(&b, "\t%d: {%s},\n", ti, strings.Trim(fmt.Sprint(ks), "[]"))
		}
	}
	for _, k := range got[0] {
		if k == mixPool {
			t.Errorf("the warm-up op (template 0, entry %d) is unsafe", mixPool)
		}
	}
	want := map[int][]int{}
	for ti, ks := range mixUnsafe {
		want[ti] = append([]int(nil), ks...)
		sort.Ints(want[ti])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mixUnsafe is out of date; the screen found:\n%s", strings.ReplaceAll(b.String(), " ", ", "))
	}
}

// countMetrics are the per-layer metrics derived from Result contents
// and daemon counts, which must repeat exactly for a seed.
var countMetrics = []string{
	"sim.events_per_op", "mac.retries_per_op", "mac.drops_per_op", "mac.retries_per_forward",
	"queue.drops_per_op", "node.forwards_per_op", "node.marks_per_op",
	"routing.discoveries_per_op", "routing.rerr_per_op", "routing.link_failures_per_op",
	"tcp.segments_per_op", "tcp.retx_share", "tcp.timeouts_per_op", "tcp.goodput_kbps",
	"invariant.checks_per_op", "fault.transitions_per_op", "result.kb_per_op",
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func checkNames(t *testing.T, what string, got metricList, want []struct{ Name, Unit string }) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	for _, m := range got {
		if !valid.MatchString(m.name) {
			t.Errorf("%s: metric name %q", what, m.name)
		}
		if u, ok := units[m.name]; !ok || u != m.Unit {
			t.Errorf("%s: %s [%s] is not in BENCHMARK.json with that unit", what, m.name, m.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at tiny size, traced, twice
// from one seed: no op may fail, the Result-derived counts must repeat
// exactly, and the printed metrics must be the ones BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"paper-chains", "islands-1k", "muzhad-mix"}) {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var first map[string]metric
			for i := 0; i < 2; i++ {
				o := options{seed: 5, seconds: 300 * time.Millisecond, trace: true, tiny: true, workDir: t.TempDir()}
				rep, err := measure(workloads[name], o)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.problems) > 0 || rep.failed > 0 || rep.attempted == 0 {
					t.Fatalf("run %d: %d of %d ops failed, problems %v", i, rep.failed, rep.attempted, rep.problems)
				}
				checkNames(t, "end-to-end", rep.endToEnd, spec.EndToEnd)
				checkNames(t, "per-layer", rep.perLayer, spec.PerLayer)
				for _, m := range rep.endToEnd {
					if !(m.Value > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", m.name, m.Value)
					}
				}
				if !strings.Contains(rep.table, "self_ms") || !strings.Contains(rep.table, "tracing overhead") {
					t.Errorf("traced run printed no span table:\n%s", rep.table)
				}
				got := rep.perLayer.byName()
				if i == 0 {
					first = got
					continue
				}
				for _, n := range countMetrics {
					if got[n] != first[n] {
						t.Errorf("%s: %v then %v from the same seed", n, first[n].Value, got[n].Value)
					}
				}
			}
		})
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "paper-chains", "--seconds", "0"},
		{"--workload", "paper-chains", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
