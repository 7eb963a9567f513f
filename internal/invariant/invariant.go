// Package invariant provides run-time Always/Sometimes assertions in the
// style of Antithesis: properties registered once and evaluated
// continuously while a simulation runs. An Always assertion must hold at
// every check; a violation is counted and a bounded number of detail
// messages are captured, but execution continues so one run can surface
// every broken property. A Sometimes assertion records that an
// interesting state (a queue overflow, a route re-discovery) was reached
// at least once — coverage signal for the scenario fuzzer.
//
// The checker is deliberately allocation-light: assertions are
// pre-registered handles, a passing check is a counter increment, and
// detail strings are only formatted on failure. Check boxes its detail
// arguments on every call, so hot paths test the condition themselves
// and call Checked, or Fail with a detail rendered only then. All methods
// are nil-receiver safe so instrumented code needs no guards.
package invariant

import (
	"fmt"
	"sort"

	"muzha/internal/sim"
)

// Kind distinguishes assertion classes.
type Kind int

const (
	// Always assertions must hold at every evaluation.
	Always Kind = iota + 1
	// Sometimes assertions record that a state was reached at least once.
	Sometimes
)

func (k Kind) String() string {
	switch k {
	case Always:
		return "always"
	case Sometimes:
		return "sometimes"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// maxDetails bounds the violation messages kept per assertion.
const maxDetails = 4

// Assertion is one registered property. Obtain handles from a Checker;
// the zero value and nil are inert.
type Assertion struct {
	name       string
	kind       Kind
	clock      func() sim.Time
	checks     uint64
	violations uint64
	details    []string
}

// Name returns the assertion's registered name.
func (a *Assertion) Name() string {
	if a == nil {
		return ""
	}
	return a.name
}

// Check evaluates an Always condition. On failure the format/args are
// rendered (prefixed with the virtual time when a clock is set) and the
// violation counted. It returns ok so callers can chain on it. The args
// are boxed even when ok holds; per-packet code uses Checked/Fail.
func (a *Assertion) Check(ok bool, format string, args ...any) bool {
	if a == nil {
		return ok
	}
	a.checks++
	if !ok {
		a.fail(fmt.Sprintf(format, args...))
	}
	return ok
}

// Checked records a passing evaluation without a condition; use when the
// property was verified by construction on this path.
func (a *Assertion) Checked() {
	if a != nil {
		a.checks++
	}
}

// Fail records a violation directly with a pre-rendered detail.
func (a *Assertion) Fail(detail string) {
	if a == nil {
		return
	}
	a.checks++
	a.fail(detail)
}

func (a *Assertion) fail(detail string) {
	a.violations++
	if len(a.details) < maxDetails {
		if a.clock != nil {
			detail = fmt.Sprintf("t=%v: %s", a.clock(), detail)
		}
		a.details = append(a.details, detail)
	}
}

// Reach marks a Sometimes assertion as reached.
func (a *Assertion) Reach() {
	if a != nil {
		a.checks++
	}
}

// Violations returns the violation count.
func (a *Assertion) Violations() uint64 {
	if a == nil {
		return 0
	}
	return a.violations
}

// Result is one assertion's outcome, exported for reporting.
type Result struct {
	Name string
	Kind string
	// Checks counts evaluations (Always) or reaches (Sometimes).
	Checks uint64
	// Violations counts failed Always evaluations; always 0 for
	// Sometimes assertions.
	Violations uint64
	// Details holds up to a few rendered violation messages.
	Details []string
}

// Checker owns a run's assertions. Not safe for concurrent use; the
// simulator is single-threaded.
type Checker struct {
	clock  func() sim.Time
	byName map[string]*Assertion
	order  []*Assertion
}

// New returns an empty checker. clock, when non-nil, timestamps
// violation details with the virtual time.
func New(clock func() sim.Time) *Checker {
	return &Checker{clock: clock, byName: make(map[string]*Assertion)}
}

// Always registers (or retrieves) an Always assertion by name. Multiple
// instrumentation sites sharing a name share counters.
func (c *Checker) Always(name string) *Assertion { return c.register(name, Always) }

// Sometimes registers (or retrieves) a Sometimes assertion by name.
func (c *Checker) Sometimes(name string) *Assertion { return c.register(name, Sometimes) }

func (c *Checker) register(name string, kind Kind) *Assertion {
	if c == nil {
		return nil
	}
	if a, ok := c.byName[name]; ok {
		return a
	}
	a := &Assertion{name: name, kind: kind, clock: c.clock}
	c.byName[name] = a
	c.order = append(c.order, a)
	return a
}

// Violations returns the total Always violations across all assertions.
func (c *Checker) Violations() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for _, a := range c.order {
		n += a.violations
	}
	return n
}

// Coverage returns the sorted names of the Sometimes assertions that
// have been reached at least once — the per-run coverage export the
// chaos fuzzer's corpus is keyed by.
func (c *Checker) Coverage() []string {
	if c == nil {
		return nil
	}
	var out []string
	for _, a := range c.order {
		if a.kind == Sometimes && a.checks > 0 {
			out = append(out, a.name)
		}
	}
	sort.Strings(out)
	return out
}

// Report returns every assertion's outcome in registration order.
func (c *Checker) Report() []Result {
	if c == nil {
		return nil
	}
	out := make([]Result, 0, len(c.order))
	for _, a := range c.order {
		r := Result{Name: a.name, Kind: a.kind.String(), Checks: a.checks, Violations: a.violations}
		if len(a.details) > 0 {
			r.Details = append([]string(nil), a.details...)
		}
		out = append(out, r)
	}
	return out
}

// Ledger tracks packet conservation: every transport-layer delivery must
// correspond to a packet some node actually originated. Retransmissions
// and MAC-duplicate deliveries reuse originated UIDs, so deliveries are
// not required to be unique — only to exist.
//
// The ledger is memory-bounded: a UID lives in the outstanding set from
// Originate until its first Delivered or Dropped, then moves to a
// bounded cooling ring that still satisfies late lookups (a MAC
// duplicate can arrive after the first copy was delivered, and a
// salvaged retransmission can deliver after an earlier copy dropped).
// Once ledgerCooledCap newer UIDs have retired, the slot is recycled;
// a duplicate arriving later than that would report a false violation,
// but the ring holds ~65k packet lifetimes — orders of magnitude past
// any 802.11 retry/queue latency the stack can produce. Resident state
// is therefore O(in-flight + ring), not O(run history).
type Ledger struct {
	a           *Assertion
	outstanding map[uint64]struct{}
	cooled      map[uint64]struct{}
	ring        []uint64
	ringPos     int
	peak        int
}

// ledgerCooledCap bounds how many retired UIDs stay queryable.
const ledgerCooledCap = 1 << 16

// NewLedger binds a conservation ledger to an assertion (usually
// checker.Always("packet-conservation")).
func NewLedger(a *Assertion) *Ledger {
	return &Ledger{
		a:           a,
		outstanding: make(map[uint64]struct{}),
		cooled:      make(map[uint64]struct{}),
	}
}

// Originate records that uid entered the network at a transport sender.
func (l *Ledger) Originate(uid uint64) {
	if l == nil {
		return
	}
	l.outstanding[uid] = struct{}{}
	if len(l.outstanding) > l.peak {
		l.peak = len(l.outstanding)
	}
}

// Delivered asserts that uid was previously originated and retires it
// from the outstanding set.
func (l *Ledger) Delivered(uid uint64) {
	if l == nil {
		return
	}
	_, out := l.outstanding[uid]
	_, cool := l.cooled[uid]
	if out || cool {
		l.a.Checked()
	} else {
		l.a.Fail(fmt.Sprintf("packet uid %d delivered but never originated", uid))
	}
	if out {
		l.retire(uid)
	}
}

// Dropped retires uid after a terminal drop (queue overflow, TTL
// expiry, route failure, crash flush, ...). Unknown or zero UIDs are
// ignored: routing-protocol packets carry UIDs but are never
// originated, and pre-UID drops have nothing to retire.
func (l *Ledger) Dropped(uid uint64) {
	if l == nil {
		return
	}
	if _, ok := l.outstanding[uid]; ok {
		l.retire(uid)
	}
}

// Outstanding returns the number of originated-but-unretired UIDs;
// Peak returns the high-water mark. Both exist so tests can prove the
// ledger stays bounded.
func (l *Ledger) Outstanding() int { return len(l.outstanding) }
func (l *Ledger) Peak() int        { return l.peak }

// retire moves uid to the cooling ring. The ring grows by append until
// it holds ledgerCooledCap UIDs, so a short run never pays for the
// whole ring, and only then recycles its oldest slot.
func (l *Ledger) retire(uid uint64) {
	delete(l.outstanding, uid)
	if len(l.ring) < ledgerCooledCap {
		l.ring = append(l.ring, uid)
	} else {
		if old := l.ring[l.ringPos]; old != 0 {
			delete(l.cooled, old)
		}
		l.ring[l.ringPos] = uid
		l.ringPos = (l.ringPos + 1) % ledgerCooledCap
	}
	l.cooled[uid] = struct{}{}
}

// LoopScan checks next-hop graphs for cycles, one graph per destination.
// A scan feeds every node's routes through Add, in ascending node order,
// then Check walks the destinations in ascending ID order and, within
// one, starts a walk at each routed node in ascending ID order, so
// violation details come out in a fixed order. Its tables are indexed by
// node ID and kept from scan to scan: a warmed scan allocates nothing.
// The zero value is ready to use.
type LoopScan struct {
	hops  []hop   // this scan's routes in Add order
	byDst []hop   // the same, bucketed by destination, stable
	start []int32 // bucket boundaries: dst d holds byDst[start[d]:start[d+1]]
	last  int32   // largest from passed to Add this scan
	ids   int32   // one past the largest node ID seen this scan

	// Per-node tables for the destination being walked. An entry is
	// valid only while its stamp equals gen, so a new destination costs
	// one increment, not a clear.
	next, state    []int32
	nextGen, stGen []uint32
	gen            uint32
}

type hop struct{ from, dst, next int32 }

// Add records that node from routes to dst via next. Calls within one
// scan must come in non-decreasing from order.
func (l *LoopScan) Add(from, dst, next int32) {
	if len(l.hops) > 0 && from < l.last {
		panic(fmt.Sprintf("invariant: LoopScan.Add from n%d after n%d", from, l.last))
	}
	l.last = from
	l.hops = append(l.hops, hop{from: from, dst: dst, next: next})
	l.ids = max(l.ids, from+1, dst+1, next+1)
}

// Check walks every destination added since the last Check and asserts
// its next-hop graph is cycle-free: a destination that passes counts one
// check on a, and each cycle found counts one violation ("routing loop
// to nD through nN"). A node without a route to the destination, or the
// destination itself, ends a walk. It returns false when any cycle was
// found, and resets the scan.
func (l *LoopScan) Check(a *Assertion) bool {
	n := int(l.ids)
	if cap(l.start) < n+1 {
		l.next, l.state = make([]int32, n), make([]int32, n)
		l.nextGen, l.stGen = make([]uint32, n), make([]uint32, n)
		l.start = make([]int32, n+1)
		l.gen = 0
	}
	l.next, l.state = l.next[:n], l.state[:n]
	l.nextGen, l.stGen = l.nextGen[:n], l.stGen[:n]
	// Counting sort by destination; stable, so each bucket keeps the
	// ascending from order Add was called in.
	start := l.start[:n+1]
	clear(start)
	for _, h := range l.hops {
		start[h.dst+1]++
	}
	for d := 1; d <= n; d++ {
		start[d] += start[d-1]
	}
	l.byDst = append(l.byDst[:0], l.hops...)
	// state doubles as the bucket cursors: every stamp in stGen predates
	// the next walk's gen, so the values left behind read as unvisited.
	fill := l.state
	copy(fill, start[:n])
	for _, h := range l.hops {
		l.byDst[fill[h.dst]] = h
		fill[h.dst]++
	}

	ok := true
	for dst := int32(0); dst < int32(n); dst++ {
		bucket := l.byDst[start[dst]:start[dst+1]]
		if len(bucket) == 0 {
			continue
		}
		ok = l.walk(a, dst, bucket) && ok
	}
	l.hops = l.hops[:0]
	l.ids = 0
	return ok
}

// walk checks one destination's graph. A node's state is 0 (unvisited),
// start+1 while the walk from start is on it, or done once proven
// loop-free; meeting the current walk's mark again means a cycle.
func (l *LoopScan) walk(a *Assertion, dst int32, bucket []hop) bool {
	l.gen++
	if l.gen == 0 { // wrapped: old stamps could alias
		clear(l.nextGen)
		clear(l.stGen)
		l.gen = 1
	}
	g := l.gen
	for _, h := range bucket {
		l.next[h.from], l.nextGen[h.from] = h.next, g
	}
	state := func(n int32) int32 {
		if l.stGen[n] != g {
			return 0
		}
		return l.state[n]
	}
	const done = -2
	ok := true
	for _, h := range bucket {
		start := h.from
		n := start
		for {
			if state(n) == done {
				break
			}
			if state(n) == start+1 {
				ok = a.Check(false, "routing loop to n%d through n%d", dst, n) && ok
				break
			}
			l.state[n], l.stGen[n] = start+1, g
			if l.nextGen[n] != g || l.next[n] == dst {
				break
			}
			n = l.next[n]
		}
		// Mark the walked chain as settled.
		m := start
		for state(m) == start+1 {
			l.state[m] = done
			if l.nextGen[m] != g {
				break
			}
			m = l.next[m]
		}
	}
	if ok {
		a.Checked()
	}
	return ok
}
