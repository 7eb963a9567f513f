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
// fixed-capacity cooling ring that still satisfies late lookups (a MAC
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

func (l *Ledger) retire(uid uint64) {
	delete(l.outstanding, uid)
	if l.ring == nil {
		l.ring = make([]uint64, ledgerCooledCap)
	}
	if old := l.ring[l.ringPos]; old != 0 {
		delete(l.cooled, old)
	}
	l.ring[l.ringPos] = uid
	l.ringPos = (l.ringPos + 1) % len(l.ring)
	l.cooled[uid] = struct{}{}
}

// LoopFree walks a next-hop graph for one destination and asserts it is
// cycle-free. nextHop maps node -> next hop for nodes holding a valid
// route; nodes absent from the map terminate a walk (no route, or the
// destination itself). Returns false when a cycle was found.
func LoopFree(a *Assertion, dst int32, nextHop map[int32]int32) bool {
	if len(nextHop) == 0 {
		a.Checked()
		return true
	}
	// Order start nodes for deterministic violation details.
	starts := make([]int32, 0, len(nextHop))
	for n := range nextHop {
		starts = append(starts, n)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	const done = -2 // walked and proven loop-free
	state := make(map[int32]int32, len(nextHop))
	ok := true
	for _, start := range starts {
		// Follow the chain, marking nodes with the walk's start; meeting
		// the same mark again means a cycle.
		n := start
		for {
			if state[n] == done {
				break
			}
			if state[n] == start+1 { // +1 so the zero value stays "unvisited"
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
		// Mark the walked chain as settled.
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
	return ok
}
