package invariant

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// loopFreeMap is the map-based walk LoopScan replaced, kept as its
// reference: starts sorted per call, state in a fresh map.
func loopFreeMap(a *Assertion, dst int32, nextHop map[int32]int32) {
	starts := make([]int32, 0, len(nextHop))
	for n := range nextHop {
		starts = append(starts, n)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	const done = -2
	state := make(map[int32]int32, len(nextHop))
	ok := true
	for _, start := range starts {
		n := start
		for {
			if state[n] == done {
				break
			}
			if state[n] == start+1 {
				ok = a.Check(false, "routing loop to n%d through n%d", dst, n) && ok
				break
			}
			state[n] = start + 1
			nh, has := nextHop[n]
			if !has || nh == dst {
				break
			}
			n = nh
		}
		m := start
		for state[m] == start+1 {
			state[m] = done
			nh, has := nextHop[m]
			if !has {
				break
			}
			m = nh
		}
	}
	if ok {
		a.Checked()
	}
}

// randomTables returns per-node route tables (node -> dst -> next hop)
// over n nodes, loops and self-routes included.
func randomTables(rng *rand.Rand, n int) []map[int32]int32 {
	tables := make([]map[int32]int32, n)
	for i := range tables {
		tables[i] = make(map[int32]int32)
		for d := 0; d < n; d++ {
			if rng.Intn(3) == 0 {
				tables[i][int32(d)] = int32(rng.Intn(n))
			}
		}
	}
	return tables
}

// TestLoopScanMatchesMapWalk runs LoopScan and the map-based reference
// over random route tables: check counts, violation counts and the
// rendered details, in order, must agree. One LoopScan serves every
// trial, so tables reused across scans of different sizes are covered.
func TestLoopScanMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l LoopScan
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		tables := randomTables(rng, n)
		ref := New(nil).Always("route-loop-free")
		perDst := make(map[int32]map[int32]int32)
		for from, tbl := range tables {
			for dst, nh := range tbl {
				if perDst[dst] == nil {
					perDst[dst] = make(map[int32]int32)
				}
				perDst[dst][int32(from)] = nh
			}
		}
		for d := int32(0); d < int32(n); d++ {
			if len(perDst[d]) > 0 {
				loopFreeMap(ref, d, perDst[d])
			}
		}
		got := New(nil).Always("route-loop-free")
		for from, tbl := range tables {
			for dst, nh := range tbl { // map order: Check must not care
				l.Add(int32(from), dst, nh)
			}
		}
		ok := l.Check(got)
		if got.checks != ref.checks || got.violations != ref.violations ||
			!reflect.DeepEqual(got.details, ref.details) || ok != (ref.violations == 0) {
			t.Fatalf("trial %d (n=%d): LoopScan checks %d violations %d details %q ok %v; reference %d %d %q",
				trial, n, got.checks, got.violations, got.details, ok, ref.checks, ref.violations, ref.details)
		}
	}
}

// TestLoopScanWarmAllocatesNothing pins the scan's steady state at zero
// allocations: a thousand-node, loop-free table set (every next hop is
// the destination or a lower ID), scanned once to size the tables, then
// again.
func TestLoopScanWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 1000
	type route struct{ from, dst, next int32 }
	var routes []route
	for from := int32(0); from < n; from++ {
		for k := 0; k < 8; k++ {
			dst, next := int32(rng.Intn(n)), int32(0)
			if from > 0 && rng.Intn(2) == 0 {
				next = int32(rng.Intn(int(from)))
			} else {
				next = dst
			}
			routes = append(routes, route{from, dst, next})
		}
	}
	a := New(nil).Always("route-loop-free")
	var l LoopScan
	scan := func() {
		for _, r := range routes {
			l.Add(r.from, r.dst, r.next)
		}
		l.Check(a)
	}
	scan()
	if a.violations != 0 {
		t.Fatalf("%d violations on loop-free tables", a.violations)
	}
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("warmed scan allocates %.1f times, want 0", allocs)
	}
}

func TestLoopScanRejectsOutOfOrderAdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with a decreasing from did not panic")
		}
	}()
	var l LoopScan
	l.Add(3, 0, 1)
	l.Add(2, 0, 1)
}
