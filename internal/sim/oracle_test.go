package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential test of the event queue against a brute-force oracle: a
// flat list of pending entries searched linearly for the minimum
// (at, seq). A random program of Schedule, ScheduleArg, Cancel,
// Timer.Reset, Timer.Stop and Reserve+AtSeq chains runs both from the top
// level and from inside callbacks, so every path through the held root
// (fused take, release on reschedule, compaction, Pending, QueueLen) is
// exercised. The fired (at, seq) stream, every Cancel result and every
// Pending/QueueLen read inside a callback must match the oracle.

// oEntry is one oracle queue entry. Cancelled entries stay queued until
// they reach the front or a compaction drops them, mirroring the lazy
// deletion whose footprint QueueLen reports.
type oEntry struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
	fired     bool
}

type oracle struct {
	now     Time
	seq     uint64
	entries []*oEntry
	dead    int
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
			if !x.cancelled {
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

// chain is a Reserve+AtSeq cursor: a block of reserved keys, sorted, of
// which only the next is ever queued.
type chain struct {
	keys []oEntry
	next int
}

// diffRun drives one random program and returns the first mismatch.
func diffRun(seed int64, budget int) error {
	rng := rand.New(rand.NewSource(seed))
	s := New(1)
	o := &oracle{}
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
	delay := func() Time { return Time(rng.Intn(6)) } // small: many same-instant ties

	// check runs when an event fires: the oracle's next entry must be the
	// one the engine chose.
	check := func(id int) {
		fired++
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
	var onArg func(any)
	var arm func(c *chain)
	onChain := func(a any) {
		c := a.(*chain)
		check(c.keys[c.next].id)
		c.next++
		// Half the time the cursor re-arms before doing anything else (it
		// takes the held slot), half after other work.
		early := rng.Intn(2) == 0
		if early {
			arm(c)
		}
		act(1)
		if !early {
			arm(c)
		}
	}
	arm = func(c *chain) {
		if c.next >= len(c.keys) {
			return
		}
		k := c.keys[c.next]
		e := &oEntry{at: k.at, seq: k.seq, id: k.id}
		o.entries = append(o.entries, e)
		s.AtSeq(k.at, k.seq, onChain, c)
	}
	onArg = func(a any) {
		check(a.(int))
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
		n := rng.Intn(4)
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
				refs = append(refs, s.ScheduleArg(d, onArg, id))
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
				if o.pending(tEnts[k]) {
					e := tEnts[k]
					e.at, e.seq = s.Now()+d, o.seq
					o.seq++
				} else {
					tEnts[k] = o.push(s.Now()+d, -1-k)
				}
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
				c := &chain{}
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
					burst[q] = s.ScheduleArg(d, onArg, -100)
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

	for ids < budget/4 {
		act(0)
	}
	s.RunAll()
	if e := o.pop(); e != nil {
		fail("oracle still holds id %d key (%v,%d) after the engine drained", e.id, e.at, e.seq)
	}
	if s.EventsExecuted() != uint64(fired) {
		fail("EventsExecuted = %d, callbacks ran %d", s.EventsExecuted(), fired)
	}
	if len(errs) > 0 {
		return fmt.Errorf("seed %d: %s", seed, strings.Join(errs, "; "))
	}
	return nil
}

func sortKeys(k []oEntry) {
	for i := 1; i < len(k); i++ {
		for j := i; j > 0 && (k[j].at < k[j-1].at || (k[j].at == k[j-1].at && k[j].seq < k[j-1].seq)); j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}

func TestQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := diffRun(seed, 400); err != nil {
			t.Fatal(err)
		}
	}
	// A long run crosses the compaction threshold many times.
	if err := diffRun(7, 20000); err != nil {
		t.Fatal(err)
	}
}

func FuzzQueueDifferential(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(42), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, budget uint16) {
		if err := diffRun(seed, int(budget%4096)+1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAtSeqRejectsPastKeys pins AtSeq's misuse checks: a key before or at
// the fired key, or a sequence number nobody reserved, panics.
func TestAtSeqRejectsPastKeys(t *testing.T) {
	nop := func(any) {}
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
	mustPanic("unreserved", func() { s.AtSeq(10, 0, nop, nil) })
	s0 := s.Reserve(4)
	s.Schedule(10, func() {
		// The firing event took seq 4, after the reserved block.
		mustPanic("earlier time", func() { s.AtSeq(9, s0, nop, nil) })
		mustPanic("same instant, earlier seq", func() { s.AtSeq(10, s0+1, nop, nil) })
		mustPanic("the fired key itself", func() { s.AtSeq(10, s.last, nop, nil) })
		s.AtSeq(11, s0+2, nop, nil) // later instant: any reserved seq
	})
	s.RunAll()
	if s.EventsExecuted() != 2 {
		t.Fatalf("EventsExecuted = %d, want 2", s.EventsExecuted())
	}
	if s.Now() != 11 {
		t.Fatalf("Now = %v, want 11ns", s.Now())
	}
}
