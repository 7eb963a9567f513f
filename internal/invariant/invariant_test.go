package invariant

import (
	"fmt"
	"strings"
	"testing"

	"muzha/internal/sim"
)

func TestAlwaysCountsAndDetails(t *testing.T) {
	s := sim.New(1)
	c := New(s.Now)
	a := c.Always("queue-bound")
	for i := 0; i < 10; i++ {
		a.Check(i < 8, "len %d over limit", i)
	}
	if a.Violations() != 2 {
		t.Fatalf("violations = %d, want 2", a.Violations())
	}
	if c.Violations() != 2 {
		t.Fatalf("checker violations = %d, want 2", c.Violations())
	}
	rep := c.Report()
	if len(rep) != 1 || rep[0].Name != "queue-bound" || rep[0].Kind != "always" {
		t.Fatalf("report = %+v", rep)
	}
	if rep[0].Checks != 10 || rep[0].Violations != 2 {
		t.Fatalf("report counters = %+v", rep[0])
	}
	if len(rep[0].Details) != 2 || !strings.Contains(rep[0].Details[0], "len 8 over limit") {
		t.Fatalf("details = %v", rep[0].Details)
	}
}

// TestPassingCheckAllocatesNothing pins the hot-path pattern: a check
// that holds is a bare Checked, so it boxes and formats nothing.
func TestPassingCheckAllocatesNothing(t *testing.T) {
	a := New(nil).Always("flow")
	uid, ttl := uint64(1<<40), 63
	allocs := testing.AllocsPerRun(100, func() {
		if ttl < 64 {
			a.Checked()
		} else {
			a.Fail(fmt.Sprintf("packet uid %d ttl %d out of range", uid, ttl))
		}
	})
	if allocs != 0 {
		t.Fatalf("passing check allocates %.1f objects, want 0", allocs)
	}
	if got := a.Violations(); got != 0 {
		t.Fatalf("violations = %d, want 0", got)
	}
}

// TestCheckedFailMatchesCheck pins that the hot-path pattern records the
// same counts and detail text as Check.
func TestCheckedFailMatchesCheck(t *testing.T) {
	s := sim.New(1)
	c := New(s.Now)
	viaCheck, viaFail := c.Always("check"), c.Always("fail")
	for _, cwnd := range []float64{2, 0.5} {
		viaCheck.Check(cwnd >= 1, "flow %d: cwnd %g below one segment", 3, cwnd)
		if cwnd >= 1 {
			viaFail.Checked()
		} else {
			viaFail.Fail(fmt.Sprintf("flow %d: cwnd %g below one segment", 3, cwnd))
		}
	}
	rep := c.Report()
	if rep[0].Checks != 2 || rep[0].Checks != rep[1].Checks || rep[0].Violations != rep[1].Violations ||
		len(rep[1].Details) != 1 || rep[0].Details[0] != rep[1].Details[0] {
		t.Fatalf("Check %+v and Checked/Fail %+v disagree", rep[0], rep[1])
	}
}

func TestDetailCaptureIsBounded(t *testing.T) {
	c := New(nil)
	a := c.Always("x")
	for i := 0; i < 100; i++ {
		a.Fail("boom")
	}
	rep := c.Report()
	if len(rep[0].Details) != maxDetails {
		t.Fatalf("details kept = %d, want %d", len(rep[0].Details), maxDetails)
	}
	if rep[0].Violations != 100 {
		t.Fatalf("violations = %d, want 100", rep[0].Violations)
	}
}

func TestSharedRegistration(t *testing.T) {
	c := New(nil)
	a1 := c.Always("shared")
	a2 := c.Always("shared")
	if a1 != a2 {
		t.Fatal("same name must return the same assertion")
	}
	a1.Check(true, "")
	a2.Check(false, "bad")
	if got := c.Report(); len(got) != 1 || got[0].Checks != 2 || got[0].Violations != 1 {
		t.Fatalf("report = %+v", got)
	}
}

func TestSometimesReach(t *testing.T) {
	c := New(nil)
	hit := c.Sometimes("queue-overflow")
	c.Sometimes("never")
	hit.Reach()
	hit.Reach()
	rep := c.Report()
	if rep[0].Checks != 2 || rep[0].Kind != "sometimes" {
		t.Fatalf("reached assertion = %+v", rep[0])
	}
	if rep[1].Checks != 0 {
		t.Fatalf("unreached assertion = %+v", rep[1])
	}
	if c.Violations() != 0 {
		t.Fatal("sometimes assertions must not count as violations")
	}
}

func TestNilSafety(t *testing.T) {
	var a *Assertion
	a.Check(false, "ignored")
	a.Fail("ignored")
	a.Reach()
	a.Checked()
	if a.Violations() != 0 || a.Name() != "" {
		t.Fatal("nil assertion must be inert")
	}
	var c *Checker
	if c.Always("x") != nil || c.Violations() != 0 || c.Report() != nil {
		t.Fatal("nil checker must be inert")
	}
	var l *Ledger
	l.Originate(1)
	l.Delivered(1)
	l.Dropped(1)
}

func TestLedgerConservation(t *testing.T) {
	c := New(nil)
	l := NewLedger(c.Always("packet-conservation"))
	l.Originate(7)
	l.Delivered(7)
	l.Delivered(7) // duplicate delivery of a real packet is allowed
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0", c.Violations())
	}
	l.Delivered(99)
	if c.Violations() != 1 {
		t.Fatalf("violations = %d, want 1 after conjured packet", c.Violations())
	}
}

func TestLedgerBounded(t *testing.T) {
	c := New(nil)
	l := NewLedger(c.Always("packet-conservation"))
	// A long run's worth of originate/retire cycles must not accumulate
	// state: outstanding drains to zero and total resident UIDs stay at
	// the cooling-ring capacity.
	const n = 4 * ledgerCooledCap
	for uid := uint64(1); uid <= n; uid++ {
		l.Originate(uid)
		if uid%2 == 0 {
			l.Delivered(uid)
		} else {
			l.Dropped(uid)
		}
	}
	if got := l.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d, want 0 after full retirement", got)
	}
	if len(l.cooled) > ledgerCooledCap {
		t.Fatalf("cooled set %d exceeds ring capacity %d", len(l.cooled), ledgerCooledCap)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0", c.Violations())
	}
}

// TestLedgerRingGrowsToCap pins the cooling ring's growth and its
// recycle point: k < ledgerCooledCap retirements hold exactly k UIDs,
// and a UID stays queryable until ledgerCooledCap newer ones retire.
func TestLedgerRingGrowsToCap(t *testing.T) {
	c := New(nil)
	l := NewLedger(c.Always("packet-conservation"))
	for _, k := range []int{1, 7, 1000} {
		for uid := uint64(len(l.ring) + 1); uid <= uint64(k); uid++ {
			l.Originate(uid)
			l.Delivered(uid)
		}
		if len(l.ring) != k || len(l.cooled) != k {
			t.Fatalf("after %d retirements: ring %d, cooled %d, want %d", k, len(l.ring), len(l.cooled), k)
		}
	}
	for uid := uint64(1001); uid <= ledgerCooledCap; uid++ {
		l.Originate(uid)
		l.Dropped(uid)
	}
	if len(l.ring) != ledgerCooledCap || len(l.cooled) != ledgerCooledCap {
		t.Fatalf("full ring: ring %d, cooled %d, want %d", len(l.ring), len(l.cooled), ledgerCooledCap)
	}
	l.Delivered(1) // still cooled: ledgerCooledCap-1 newer retirements
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0 while uid 1 is in the ring", c.Violations())
	}
	l.Originate(ledgerCooledCap + 1)
	l.Dropped(ledgerCooledCap + 1) // recycles uid 1's slot
	if len(l.ring) != ledgerCooledCap || len(l.cooled) != ledgerCooledCap {
		t.Fatalf("after wrap: ring %d, cooled %d, want %d", len(l.ring), len(l.cooled), ledgerCooledCap)
	}
	l.Delivered(2)
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0: uid 2 is still in the ring", c.Violations())
	}
	l.Delivered(1)
	if c.Violations() != 1 {
		t.Fatalf("violations = %d, want 1: uid 1 was recycled", c.Violations())
	}
}

func TestLedgerLateDuplicateAfterRetire(t *testing.T) {
	c := New(nil)
	l := NewLedger(c.Always("packet-conservation"))
	l.Originate(7)
	l.Delivered(7)
	// The UID has been retired to the cooling ring; a MAC-duplicate
	// delivery arriving later must still pass.
	l.Delivered(7)
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0 for cooled duplicate", c.Violations())
	}
	// A salvaged copy delivering after a drop likewise.
	l.Originate(8)
	l.Dropped(8)
	l.Delivered(8)
	if c.Violations() != 0 {
		t.Fatalf("violations = %d, want 0 for delivery after drop", c.Violations())
	}
}

func TestLedgerDroppedUnknown(t *testing.T) {
	c := New(nil)
	l := NewLedger(c.Always("packet-conservation"))
	l.Dropped(0)  // pre-UID drop
	l.Dropped(42) // routing packet UID, never originated
	if c.Violations() != 0 || l.Outstanding() != 0 {
		t.Fatal("unknown drops must be inert")
	}
}

func TestLedgerPeak(t *testing.T) {
	c := New(nil)
	l := NewLedger(c.Always("packet-conservation"))
	for uid := uint64(1); uid <= 10; uid++ {
		l.Originate(uid)
	}
	for uid := uint64(1); uid <= 10; uid++ {
		l.Delivered(uid)
	}
	if l.Peak() != 10 || l.Outstanding() != 0 {
		t.Fatalf("peak = %d outstanding = %d, want 10 and 0", l.Peak(), l.Outstanding())
	}
}

func TestLoopFree(t *testing.T) {
	c := New(nil)
	a := c.Always("route-loop-free")
	var l LoopScan

	// A scan with no routes checks nothing, even before any table exists.
	if !l.Check(a) || a.checks != 0 {
		t.Fatal("empty first scan flagged or counted")
	}

	// 0 -> 1 -> 2 -> dst(3): clean chain.
	l.Add(0, 3, 1)
	l.Add(1, 3, 2)
	l.Add(2, 3, 3)
	if !l.Check(a) {
		t.Fatal("chain flagged as loop")
	}
	if c.Violations() != 0 || a.checks != 1 {
		t.Fatalf("violations = %d, checks = %d; want 0 and 1", c.Violations(), a.checks)
	}

	// 0 -> 1 -> 0: two-node loop.
	l.Add(0, 3, 1)
	l.Add(1, 3, 0)
	if l.Check(a) {
		t.Fatal("loop not detected")
	}
	if c.Violations() == 0 {
		t.Fatal("loop must record a violation")
	}

	// Self-loop.
	before := c.Violations()
	l.Add(2, 5, 2)
	if l.Check(a) {
		t.Fatal("self-loop not detected")
	}
	if c.Violations() == before {
		t.Fatal("self-loop must record a violation")
	}

	// A scan with no routes checks nothing.
	checks := a.checks
	if !l.Check(a) || a.checks != checks {
		t.Fatal("empty scan flagged or counted")
	}
}
