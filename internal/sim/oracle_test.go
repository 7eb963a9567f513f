package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential test of the event queue against a brute-force oracle: a
// flat list of pending entries searched linearly for the minimum
// (at, seq). A random program of Schedule, Cancel,
// Timer.Reset, Timer.Stop and Reserve+AtSeq chains runs both from the top
// level and from inside callbacks, so every path through the held root
// (fused take, release on reschedule, compaction, Pending, QueueLen) is
// exercised. A chain tries to claim its next key with FireAt, at the
// current instant or a later one, after doing its event's work; the
// oracle says whether the key leads its queue, and the claim must succeed
// exactly then. A stopped timer's Reset revives its queued slot. Some
// programs run under a guard, which may abort the run, or call Stop;
// either can land in the middle of a chain's claims. A third of the
// programs run in short Run(until) slices, so horizons cut chains. The
// fired (at, seq) stream, every claim, every Cancel result, every guard
// call and every Pending/QueueLen read must match the oracle.

// oEntry is one oracle queue entry. Cancelled entries stay queued until
// they reach the front or a compaction drops them, mirroring the lazy
// deletion whose footprint QueueLen reports.
type oEntry struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
	fired     bool
	gone      bool // left the queue: fired, or collected after cancellation
}

type oracle struct {
	now     Time
	until   Time // the running drain's horizon
	seq     uint64
	entries []*oEntry
	dead    int
}

// forever is RunAll's horizon.
const forever = Time(1<<63 - 1)

// leader returns the queued entry, cancelled or not, with the least key;
// nil when the queue is empty. A key claims only if it sorts before it.
func (o *oracle) leader() *oEntry {
	var m *oEntry
	for _, e := range o.entries {
		if m == nil || e.at < m.at || (e.at == m.at && e.seq < m.seq) {
			m = e
		}
	}
	return m
}

// collect drops the cancelled entries at or before until, as a drain to
// until does before it returns.
func (o *oracle) collect(until Time) {
	live := o.entries[:0]
	for _, e := range o.entries {
		if e.cancelled && e.at <= until {
			e.gone = true
			o.dead--
		} else {
			live = append(live, e)
		}
	}
	o.entries = live
}

func (o *oracle) push(at Time, id int) *oEntry {
	if at < o.now {
		at = o.now
	}
	e := &oEntry{at: at, seq: o.seq, id: id}
	o.seq++
	o.entries = append(o.entries, e)
	return e
}

func (o *oracle) pending(e *oEntry) bool { return e != nil && !e.fired && !e.cancelled }

func (o *oracle) cancel(e *oEntry) bool {
	if !o.pending(e) {
		return false
	}
	e.cancelled = true
	o.dead++
	if o.dead >= compactMin && o.dead*2 >= len(o.entries) {
		live := o.entries[:0]
		for _, x := range o.entries {
			if x.cancelled {
				x.gone = true
			} else {
				live = append(live, x)
			}
		}
		o.entries = live
		o.dead = 0
	}
	return true
}

// pop removes and returns the next live entry, collecting cancelled
// entries that reach the front on the way; nil when the queue is empty.
func (o *oracle) pop() *oEntry {
	for len(o.entries) > 0 {
		m := 0
		for i, e := range o.entries {
			if e.at < o.entries[m].at || (e.at == o.entries[m].at && e.seq < o.entries[m].seq) {
				m = i
			}
		}
		e := o.entries[m]
		o.entries = append(o.entries[:m], o.entries[m+1:]...)
		e.gone = true
		if e.cancelled {
			o.dead--
			continue
		}
		e.fired = true
		o.now = e.at
		return e
	}
	return nil
}

func (o *oracle) live() int { return len(o.entries) - o.dead }

// rearm models Timer.Reset: a timer whose entry is still queued, pending
// or cancelled, is moved to the new key (a cancelled one is revived);
// otherwise the timer takes a new entry.
func (o *oracle) rearm(e *oEntry, at Time, id int) *oEntry {
	if e == nil || e.gone {
		return o.push(at, id)
	}
	if e.cancelled {
		e.cancelled = false
		o.dead--
	}
	e.at, e.seq = at, o.seq
	o.seq++
	return e
}

// chain is a Reserve+AtSeq cursor: a block of reserved keys, sorted, of
// which only the next is ever queued.
type chain struct {
	keys []oEntry
	next int
	fire func(*chain)
}

func (c *chain) Fire() { c.fire(c) }

var errGuardAbort = errors.New("guard abort")

// claimStats counts how a program's FireAt calls went: claimed, declined
// because the key lay past the drain's horizon, and declined because an
// event the callback had just scheduled sorts before the key.
type claimStats struct {
	claimed, pastUntil, yielded int
}

func (c *claimStats) add(d claimStats) {
	c.claimed += d.claimed
	c.pastUntil += d.pastUntil
	c.yielded += d.yielded
}

// diffRun drives one random program and returns the first mismatch and
// its claim counts.
func diffRun(seed int64, budget int) (claimStats, error) {
	rng := rand.New(rand.NewSource(seed))
	s := New(1)
	o := &oracle{until: forever}
	var stats claimStats
	var (
		errs    []string
		ids     int
		refs    []EventRef
		refEnts []*oEntry
		timers  [3]*Timer
		tEnts   [3]*oEntry
		fired   int
	)
	fail := func(format string, args ...any) {
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	// A third of the programs run in short Run(until) slices. Their
	// queues are sparse, few events spread wide, so a slice's horizon
	// often falls between two keys of a chain with nothing else queued in
	// between; the rest keep delays small, for many same-instant ties.
	sliced := rng.Intn(3) == 0
	spread, branch, fill := 6, 4, budget/4
	if sliced {
		spread, branch, fill = 40, 2, min(fill, 4)
	}
	delay := func() Time { return Time(rng.Intn(spread)) }

	// A quarter of the programs run under a guard that checks it is
	// called after every every-th event, a quarter under one that also
	// aborts the run after abortAt events, and a quarter call Stop from
	// the stopAt-th event.
	var every, abortAt, stopAt, guardCalls int
	switch rng.Intn(4) {
	case 1:
		every = 1 + rng.Intn(8)
	case 2:
		every = 1 + rng.Intn(8)
		abortAt = every * (1 + rng.Intn(budget/every+1))
	case 3:
		stopAt = 1 + rng.Intn(budget)
	}
	if every > 0 {
		s.SetGuard(uint64(every), func() error {
			guardCalls++
			if n := s.EventsExecuted(); n != uint64(guardCalls*every) {
				fail("guard call %d came after %d events, want %d", guardCalls, n, guardCalls*every)
			}
			if abortAt > 0 && guardCalls*every >= abortAt {
				return errGuardAbort
			}
			return nil
		})
	}

	// check runs when an event fires: the oracle's next entry must be the
	// one the engine chose.
	check := func(id int) {
		fired++
		if fired == stopAt {
			s.Stop()
		}
		e := o.pop()
		switch {
		case e == nil:
			fail("engine fired id %d at %v, oracle queue empty", id, s.Now())
		case e.id != id || e.at != s.Now() || e.seq != s.last:
			fail("engine fired id %d key (%v,%d), oracle wants id %d key (%v,%d)",
				id, s.Now(), s.last, e.id, e.at, e.seq)
		}
	}

	var act func(depth int)
	var onEvent func(id int)
	// queue puts the chain's next key in the oracle; arm also queues it
	// in the engine.
	queue := func(c *chain) oEntry {
		k := c.keys[c.next]
		o.entries = append(o.entries, &oEntry{at: k.at, seq: k.seq, id: k.id})
		return k
	}
	arm := func(c *chain) {
		if c.next < len(c.keys) {
			k := queue(c)
			s.AtSeq(k.at, k.seq, c)
		}
	}
	onChain := func(c *chain) {
		for {
			check(c.keys[c.next].id)
			c.next++
			if c.next < len(c.keys) && rng.Intn(4) != 0 {
				// Do this event's work, then try to claim the next key
				// inline as the phy fanout does. The claim must succeed
				// exactly when the key leads the oracle's queue within
				// the horizon, the run was not stopped and the claim's
				// own guard tick did not abort it.
				mark := o.seq
				act(1)
				k := c.keys[c.next]
				lead := o.leader()
				leads := lead == nil || k.at < lead.at || (k.at == lead.at && k.seq < lead.seq)
				stopped := stopAt > 0 && fired >= stopAt
				got := s.FireAt(k.at, k.seq, c)
				aborted := s.GuardErr() != nil
				if want := leads && k.at <= o.until && !stopped && !aborted; got != want {
					fail("FireAt(%v,%d) at %v = %v, want %v (leads %v, until %v, stopped %v, guard abort %v)",
						k.at, k.seq, s.Now(), got, want, leads, o.until, stopped, aborted)
				}
				switch {
				case got:
					stats.claimed++
				case leads && k.at > o.until:
					stats.pastUntil++
				case !leads && lead.seq >= mark:
					stats.yielded++
				}
				queue(c)
				if !got {
					// A declined key is queued: the engine holds every
					// live entry the oracle does, the key among them.
					if got, want := s.Pending(), o.live(); got != want {
						fail("Pending() = %d after a declined FireAt(%v,%d), oracle %d", got, k.at, k.seq, want)
					}
					return
				}
				continue
			}
			// Half the time the cursor re-arms before doing anything else
			// (it takes the held slot), half after other work.
			early := rng.Intn(2) == 0
			if early {
				arm(c)
			}
			act(1)
			if !early {
				arm(c)
			}
			return
		}
	}
	onEvent = func(id int) {
		check(id)
		act(1)
	}
	for i := range timers {
		i := i
		timers[i] = NewTimer(s, func() {
			check(-1 - i)
			act(1)
		})
	}

	act = func(depth int) {
		n := rng.Intn(branch)
		if depth == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			if ids >= budget {
				return
			}
			switch op := rng.Intn(11); op {
			case 0, 1:
				id := ids
				ids++
				at := s.Now() + delay()
				refEnts = append(refEnts, o.push(at, id))
				refs = append(refs, s.Schedule(at-s.Now(), func() {
					check(id)
					act(1)
				}))
			case 2:
				id := ids
				ids++
				d := delay()
				refEnts = append(refEnts, o.push(s.Now()+d, id))
				refs = append(refs, s.Schedule(d, func() { onEvent(id) }))
			case 3:
				if len(refs) == 0 {
					continue
				}
				k := rng.Intn(len(refs))
				want := o.cancel(refEnts[k])
				if got := refs[k].Cancel(); got != want {
					fail("Cancel(id %d) = %v, oracle %v", refEnts[k].id, got, want)
				}
			case 4, 5:
				k := rng.Intn(len(timers))
				d := delay()
				tEnts[k] = o.rearm(tEnts[k], s.Now()+d, -1-k)
				timers[k].Reset(d)
			case 6:
				k := rng.Intn(len(timers))
				want := o.cancel(tEnts[k])
				if got := timers[k].Stop(); got != want {
					fail("Timer.Stop(%d) = %v, oracle %v", k, got, want)
				}
			case 7, 8:
				// A reserved block consumed one key at a time. Keys sort
				// by (at, seq); a key at the current instant needs a
				// sequence number after the fired one.
				n := 1 + rng.Intn(5)
				s0 := s.Reserve(n)
				if s0 != o.seq {
					fail("Reserve returned %d, oracle seq %d", s0, o.seq)
				}
				o.seq += uint64(n)
				c := &chain{fire: onChain}
				for q := 0; q < n; q++ {
					if rng.Intn(4) == 0 {
						continue // a reserved number left unused
					}
					c.keys = append(c.keys, oEntry{at: s.Now() + delay(), seq: s0 + uint64(q), id: ids})
					ids++
				}
				sortKeys(c.keys)
				arm(c)
			case 10:
				// A burst of far-future events cancelled at once drives
				// the lazy-deletion count over the compaction threshold.
				// Their events never fire, so they take no ids.
				burst := make([]EventRef, 8+rng.Intn(40))
				ents := make([]*oEntry, len(burst))
				for q := range burst {
					d := 100 + delay()
					ents[q] = o.push(s.Now()+d, -100)
					burst[q] = s.Schedule(d, func() { onEvent(-100) })
				}
				for q := range burst {
					o.cancel(ents[q])
					burst[q].Cancel()
				}
			case 9:
				if got, want := s.Pending(), o.live(); got != want {
					fail("Pending() = %d at %v, oracle %d", got, s.Now(), want)
				}
				if got, want := s.QueueLen(), len(o.entries); got != want {
					fail("QueueLen() = %d at %v, oracle %d", got, s.Now(), want)
				}
			}
		}
	}

	for ids < fill {
		act(0)
	}
	if sliced {
		// Run in short slices, with top-level work between them, until
		// the queue is empty. Each slice must leave the clock at its
		// horizon and nothing at or before it.
		for len(o.entries) > 0 {
			o.until = s.Now() + Time(1+rng.Intn(spread))
			s.Run(o.until)
			if s.GuardErr() != nil || (stopAt > 0 && fired >= stopAt) {
				break
			}
			if s.Now() != o.until {
				fail("Run(%v) returned at %v", o.until, s.Now())
			}
			o.collect(o.until)
			if e := o.leader(); e != nil && e.at <= o.until {
				fail("Run(%v) left id %d key (%v,%d) unfired", o.until, e.id, e.at, e.seq)
			}
			o.now = o.until
			for n := rng.Intn(3); n > 0; n-- {
				act(0)
			}
		}
		o.until = forever
	}
	s.RunAll()
	aborted := s.GuardErr() != nil
	switch {
	case aborted || (stopAt > 0 && fired >= stopAt):
		// The run ended early; whatever it left queued, including a
		// chain key it did not claim, must match the oracle.
		if aborted && (!errors.Is(s.GuardErr(), errGuardAbort) || fired != abortAt) {
			fail("guard error %v after %d events, want %v after %d", s.GuardErr(), fired, errGuardAbort, abortAt)
		}
		if !aborted && fired != stopAt {
			fail("%d events fired, want none after the Stop in event %d", fired, stopAt)
		}
		if got, want := s.Pending(), o.live(); got != want {
			fail("Pending() = %d after the run ended early, oracle %d", got, want)
		}
		if got, want := s.QueueLen(), len(o.entries); got != want {
			fail("QueueLen() = %d after the run ended early, oracle %d", got, want)
		}
	default:
		if e := o.pop(); e != nil {
			fail("oracle still holds id %d key (%v,%d) after the engine drained", e.id, e.at, e.seq)
		}
		if every > 0 && guardCalls != fired/every {
			fail("guard ran %d times over %d events, want %d", guardCalls, fired, fired/every)
		}
	}
	if s.EventsExecuted() != uint64(fired) {
		fail("EventsExecuted = %d, callbacks ran %d", s.EventsExecuted(), fired)
	}
	if len(errs) > 0 {
		return stats, fmt.Errorf("seed %d: %s", seed, strings.Join(errs, "; "))
	}
	return stats, nil
}

func sortKeys(k []oEntry) {
	for i := 1; i < len(k); i++ {
		for j := i; j > 0 && (k[j].at < k[j-1].at || (k[j].at == k[j-1].at && k[j].seq < k[j-1].seq)); j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}

func TestQueueDifferential(t *testing.T) {
	var total claimStats
	for seed := int64(1); seed <= 200; seed++ {
		stats, err := diffRun(seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		total.add(stats)
	}
	// A long run crosses the compaction threshold many times.
	stats, err := diffRun(7, 20000)
	if err != nil {
		t.Fatal(err)
	}
	total.add(stats)
	// The programs must reach every way a claim can go.
	if total.claimed == 0 || total.pastUntil == 0 || total.yielded == 0 {
		t.Fatalf("claims: %+v; want each count positive", total)
	}
}

func FuzzQueueDifferential(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(42), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, budget uint16) {
		if _, err := diffRun(seed, int(budget%4096)+1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAtSeqRejectsPastKeys pins AtSeq's misuse checks: a key before or at
// the fired key, or a sequence number nobody reserved, panics.
func TestAtSeqRejectsPastKeys(t *testing.T) {
	nop := &chain{fire: func(*chain) {}}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: AtSeq did not panic", name)
			}
		}()
		fn()
	}
	s := New(1)
	mustPanic("unreserved", func() { s.AtSeq(10, 0, nop) })
	s0 := s.Reserve(4)
	s.Schedule(10, func() {
		// The firing event took seq 4, after the reserved block.
		mustPanic("earlier time", func() { s.AtSeq(9, s0, nop) })
		mustPanic("same instant, earlier seq", func() { s.AtSeq(10, s0+1, nop) })
		mustPanic("the fired key itself", func() { s.AtSeq(10, s.last, nop) })
		s.AtSeq(11, s0+2, nop) // later instant: any reserved seq
	})
	s.RunAll()
	if s.EventsExecuted() != 2 {
		t.Fatalf("EventsExecuted = %d, want 2", s.EventsExecuted())
	}
	if s.Now() != 11 {
		t.Fatalf("Now = %v, want 11ns", s.Now())
	}
}
