// Package sim provides the deterministic discrete-event simulation engine
// that every substrate in this repository runs on.
//
// A Simulator owns a virtual clock, a priority queue of pending events and a
// seeded random source. Events scheduled for the same instant fire in the
// order they were scheduled, so a run is a pure function of the scenario
// configuration and the seed.
//
// The engine is allocation-light by design: events live in one pooled
// slice, addressed by int32 slot ids and recycled the moment they fire
// or their cancellation is collected; the priority queue is a concrete
// 4-ary indexed heap of those ids (no interface boxing, fewer cache
// misses than a binary heap); and hot callers schedule a comparable
// Handler instead of a fresh closure. Outstanding event handles are
// generation-stamped EventRef values, so a handle kept past its event's
// lifetime becomes inert instead of aliasing a recycled slot. The heap
// holds no pointers, so the sift loops that dominate a run write none:
// the garbage collector's write barrier never sees them.
//
// A fired event stays at the heap root, held, while its callback runs.
// The first event the callback schedules takes the root's slot with one
// sift-down, so the common fire-then-rearm step costs one heap walk, not
// a pop and a push. A callback that schedules nothing has its root popped
// on return; every other queue operation (compaction, Timer.Reset of a
// queued timer, Pending, QueueLen) releases the held root first. The
// held root keeps the fired key, the minimum, so the heap stays valid
// throughout. Re-keying it with the Handler it already holds writes no
// pointer at all.
//
// A caller that knows now which events it will need can Reserve a run of
// sequence numbers and later enqueue each with AtSeq, one at a time. The
// events keep the keys they would have had if all were scheduled at once,
// but occupy one queue entry between them. From inside a callback, after
// its own work, a reserved key can instead be claimed with FireAt and run
// inline, from the same queue entry; a key FireAt declines it queues as
// AtSeq would. FireAt claims the key only while it leads the queue: it
// sorts before every queued key (the held root aside), falls within the
// running drain's until, and the run was neither stopped nor aborted by
// its guard. The claimed key is then exactly the one the drain loop would
// pop next, so claiming it is event-identical to queueing it; the check
// is made afresh on every claim, so an event a callback schedules before
// the key wins. FireAt does the per-event bookkeeping a queued event gets
// (guard tick, event count, fired key, event hook).
//
// A stopped Timer keeps its queue slot, cancelled, until the queue
// collects it. Resetting it before then revives the slot in place with a
// fresh sequence number, exactly the key a new event would take, so a
// timer paused and resumed over and over leaves no dead entries behind.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, in nanoseconds since the start of the run.
type Time int64

// Common conversion helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the timestamp expressed in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the timestamp to a time.Duration relative to run start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a wall-clock style duration into simulator time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Handler is an event callback scheduled by AtSeq or as a Timer's expiry.
// Fire runs the event. Its dynamic type must be comparable, a pointer in
// practice: re-keying the held root compares the new Handler with the one
// the slot already holds and writes it only if they differ, so a cursor
// that re-arms itself writes no pointer into the pool.
type Handler interface{ Fire() }

// funcHandler carries Schedule's plain functions. Funcs are not
// comparable, so it is always written.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// event is a pooled scheduled callback, addressed by its slot id in the
// simulator's pool. Slots are recycled through the free list when the
// event fires or its cancellation is collected; gen increments on every
// recycle so stale EventRef handles can detect that their event is gone.
type event struct {
	at        Time
	seq       uint64
	h         Handler
	index     int32 // heap index, -1 when not queued
	gen       uint32
	cancelled bool
}

// EventRef is a generation-stamped handle to a scheduled event. The zero
// value is inert: Cancel and Pending return false. Handles stay safe
// after the event fires — the underlying slot may be recycled for a new
// event, but the generation stamp no longer matches, so a stale Cancel
// can never hit the wrong event.
type EventRef struct {
	s   *Simulator
	id  int32
	gen uint32
}

// ev returns the handle's event, or nil when the handle is zero or stale.
func (r EventRef) ev() *event {
	if r.s == nil {
		return nil
	}
	if e := &r.s.evs[r.id]; e.gen == r.gen {
		return e
	}
	return nil
}

// Time reports when the event fires. Zero when the handle is stale.
func (r EventRef) Time() Time {
	if e := r.ev(); e != nil {
		return e.at
	}
	return 0
}

// Cancel prevents a pending event from firing. Cancelling an event that
// has already fired or been cancelled is a no-op. Returns true if the
// event was pending and is now cancelled.
func (r EventRef) Cancel() bool {
	e := r.ev()
	if e == nil || e.cancelled || e.index < 0 {
		return false
	}
	e.cancelled = true
	r.s.noteCancelled()
	return true
}

// Pending reports whether the event is still queued and not cancelled.
func (r EventRef) Pending() bool {
	e := r.ev()
	return e != nil && !e.cancelled && e.index >= 0
}

// compactMin is the minimum number of collected cancellations before a
// heap compaction is considered; below it, lazy deletion is cheaper.
const compactMin = 64

// eventChunk is the pool growth quantum, in slots.
const eventChunk = 64

// Simulator is the discrete-event engine. It is not safe for concurrent use;
// the whole simulation is single-threaded by design so that runs are
// deterministic.
type Simulator struct {
	now Time
	// evs is the event pool, indexed by slot id. Nothing outside the
	// engine holds a pointer into it, so growth may move it.
	evs     []event
	heap    []int32 // 4-ary min-heap of slot ids ordered by (at, seq)
	dead    int     // cancelled events still queued (lazy deletion)
	free    []int32
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// until is the running drain's horizon, -1 outside a drain; FireAt
	// claims no key past it.
	until  Time
	events uint64 // total events executed, for diagnostics
	last   uint64 // seq of the event that fired last
	// held is set while the fired event's slot still sits at heap[0]
	// waiting for its callback to schedule into it (see release).
	held bool

	guard      func() error // cooperative interrupt hook, see SetGuard
	guardEvery uint64
	guardLeft  uint64 // events until the next guard call
	guardErr   error

	hook func(Time, uint64) // per-event observer, see SetEventHook
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), until: -1}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. All model
// randomness must come from here so a seed fully determines a run.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsExecuted returns the number of events that have fired so far.
func (s *Simulator) EventsExecuted() uint64 { return s.events }

// Schedule runs fn after delay. A negative delay is an error in the model;
// it is clamped to zero so the event fires "now" (after already-queued
// events for the current instant).
func (s *Simulator) Schedule(delay Time, fn func()) EventRef {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at the given absolute virtual time. Times in the past are
// clamped to the current instant.
func (s *Simulator) At(at Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: nil event function")
	}
	if at < s.now {
		at = s.now
	}
	id := s.enqueue(at, s.seq)
	s.seq++
	e := &s.evs[id]
	e.h = funcHandler(fn)
	return EventRef{s: s, id: id, gen: e.gen}
}

// Reserve sets aside n consecutive sequence numbers and returns the
// first. Each is later passed to AtSeq or FireAt; a reserved number that
// is never used leaves a gap in the (at, seq) order and changes nothing
// else.
func (s *Simulator) Reserve(n int) uint64 {
	first := s.seq
	s.seq += uint64(n)
	return first
}

// AtSeq runs h at the absolute time at with a sequence number taken from
// Reserve. The key (at, seq) must fall after the key of the event that
// fired last; AtSeq panics on a key at or before it, or on a sequence
// number that was never reserved. It returns no handle: a reserved-key
// event cannot be cancelled.
func (s *Simulator) AtSeq(at Time, seq uint64, h Handler) {
	s.checkReserved(at, seq)
	s.queueReserved(at, seq, h)
}

// queueReserved queues the checked reserved key (at, seq) with h.
func (s *Simulator) queueReserved(at Time, seq uint64, h Handler) {
	if h == nil {
		panic("sim: nil event handler")
	}
	s.keep(s.enqueue(at, seq), h)
}

// keep gives slot id the comparable Handler h, writing it only if it
// differs: a held root re-keyed with its own Handler writes no pointer.
func (s *Simulator) keep(id int32, h Handler) *event {
	e := &s.evs[id]
	if e.h != h {
		e.h = h
	}
	return e
}

// FireAt claims the reserved key (at, seq) for the caller to run at once,
// inline, and otherwise queues it with h as AtSeq does. It may be called
// only from an event callback, after that event's own work. It claims the
// key only when the drain loop would pop it next: the key sorts before
// every queued key but the held root, at is not past the running drain's
// until, and the run was neither stopped nor aborted by its guard. A
// claim sets the clock to at and does for the key the bookkeeping the
// drain loop does for a queued event: the guard tick owed by the event
// that fired last, the executed-event count, the fired key and the event
// hook. FireAt reports whether it claimed the key; when it did not, h
// will fire at the key from the queue.
func (s *Simulator) FireAt(at Time, seq uint64, h Handler) bool {
	s.checkReserved(at, seq)
	if !s.stopped && s.guardErr == nil && at <= s.until && s.leads(at, seq) {
		s.tick()
		if s.guardErr == nil {
			s.now = at
			s.begin(seq)
			return true
		}
	}
	s.queueReserved(at, seq, h)
	return false
}

// leads reports whether (at, seq) sorts before every queued key other
// than the held root: the root itself or, while the root is held, its at
// most four children. Cancelled keys count too: the drain loop would
// collect them first, so a key they lead is declined, which is safe.
func (s *Simulator) leads(at Time, seq uint64) bool {
	h := s.heap
	i, end := 0, min(1, len(h))
	if s.held {
		i, end = 1, min(5, len(h))
	}
	for ; i < end; i++ {
		if e := &s.evs[h[i]]; e.at < at || (e.at == at && e.seq < seq) {
			return false
		}
	}
	return true
}

// checkReserved panics unless (at, seq) is a reserved key after the fired
// key.
func (s *Simulator) checkReserved(at Time, seq uint64) {
	if seq >= s.seq || at < s.now || (at == s.now && s.events > 0 && seq <= s.last) {
		panic(fmt.Sprintf("sim: key (%v, %d) is not after the fired key (%v, %d) or was not reserved",
			at, seq, s.now, s.last))
	}
}

// enqueue queues a slot under the key (at, seq) and returns its id; the
// caller sets its callback. The first event a callback schedules takes
// the held root's slot with one sift-down (a fused pop+push).
func (s *Simulator) enqueue(at Time, seq uint64) int32 {
	if s.held {
		s.held = false
		id := s.heap[0]
		e := &s.evs[id]
		e.at, e.seq = at, seq
		s.down(0)
		return id
	}
	id := s.alloc()
	e := &s.evs[id]
	e.at, e.seq = at, seq
	s.heapPush(id)
	return id
}

// alloc pops a recycled slot or grows the pool by one chunk.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	base := int32(len(s.evs))
	s.evs = append(s.evs, make([]event, eventChunk)...)
	for i := eventChunk - 1; i > 0; i-- {
		s.evs[base+int32(i)].index = -1
		s.free = append(s.free, base+int32(i))
	}
	s.evs[base].index = -1
	return base
}

// recycle returns a dequeued slot to the free list. The generation bump
// invalidates every outstanding EventRef to it.
func (s *Simulator) recycle(id int32) {
	e := &s.evs[id]
	e.gen++
	e.h = nil
	e.cancelled = false
	e.index = -1
	s.free = append(s.free, id)
}

// release pops the held root, if any, onto the free list. Every queue
// operation other than scheduling calls it first, so only enqueue ever
// sees a held root. It is small enough to inline; popHeld is the rare
// slow half.
func (s *Simulator) release() {
	if s.held {
		s.popHeld()
	}
}

func (s *Simulator) popHeld() {
	s.held = false
	s.recycle(s.heapPopMin())
}

// noteCancelled tracks lazy deletions and compacts the heap once
// cancelled events outnumber live ones, so long runs with heavy timer
// churn cannot bloat the queue.
func (s *Simulator) noteCancelled() {
	s.dead++
	if s.dead >= compactMin {
		n := len(s.heap)
		if s.held {
			n-- // the held root has already fired
		}
		if s.dead*2 >= n {
			s.compact()
		}
	}
}

// compact removes every cancelled event from the queue and restores the
// heap invariant in O(n). Relative order of live events is unchanged —
// (at, seq) is a total order — so compaction never affects a run.
func (s *Simulator) compact() {
	s.release()
	live := s.heap[:0]
	for _, id := range s.heap {
		if s.evs[id].cancelled {
			s.recycle(id)
		} else {
			live = append(live, id)
		}
	}
	s.heap = live
	s.dead = 0
	for i, id := range s.heap {
		s.evs[id].index = int32(i)
	}
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.down(i)
	}
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// SetGuard installs a cooperative interrupt hook: fn is invoked every
// `every` events during Run (default 1024 when zero), and a non-nil
// return aborts the run cleanly — the error is retained and readable
// via GuardErr, and further Run calls are no-ops. Guards keyed on event
// count or virtual time are deterministic; a wall-clock guard only
// decides whether a run aborts, never what a completed run computes.
func (s *Simulator) SetGuard(every uint64, fn func() error) {
	if every == 0 {
		every = 1024
	}
	s.guardEvery = every
	// The guard runs after every event whose count is a multiple of
	// every; tick counts down to the next one.
	s.guardLeft = every - s.events%every
	s.guard = fn
}

// GuardErr returns the error that aborted the run, if the guard fired.
func (s *Simulator) GuardErr() error { return s.guardErr }

// SetEventHook installs an observer invoked for every executed event with
// its fire time and sequence number, just before the event's function
// runs. The (time, seq) stream is a complete fingerprint of a run's
// control flow — hashing it proves two engines execute bit-identical
// schedules. Pass nil to remove the hook.
func (s *Simulator) SetEventHook(fn func(at Time, seq uint64)) { s.hook = fn }

// Run executes events until the queue is empty, Stop is called, or the
// virtual clock would pass until. Events scheduled exactly at until still
// run. On return the clock has advanced to until unless Stop was called.
// It returns the virtual time at which execution stopped.
func (s *Simulator) Run(until Time) Time {
	s.drain(until)
	if !s.stopped && s.guardErr == nil && s.now < until {
		s.now = until
	}
	return s.now
}

// RunAll executes every pending event regardless of time. Unlike Run, the
// clock stops at the last executed event.
func (s *Simulator) RunAll() Time {
	const forever = Time(1<<63 - 1)
	s.drain(forever)
	return s.now
}

func (s *Simulator) drain(until Time) {
	// A callback that panicked out of a previous drain left its root held.
	s.release()
	s.until = until
	for len(s.heap) > 0 && !s.stopped && s.guardErr == nil {
		id := s.heap[0]
		e := &s.evs[id]
		if e.at > until {
			break
		}
		if e.cancelled {
			s.heapPopMin()
			s.dead--
			s.recycle(id)
			continue
		}
		if e.at < s.now {
			// Heap invariant guarantees monotone time; anything else is a bug.
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", s.now, e.at))
		}
		s.now = e.at
		s.begin(e.seq)
		// Hold the fired slot at the root so the first event the callback
		// schedules can take it with one sift-down, overwriting the stale
		// callback copied out here. The generation bump retires every
		// handle to the fired event.
		h := e.h
		e.gen++
		s.held = true
		h.Fire()
		s.release()
		if s.guardErr == nil {
			// A FireAt that saw the guard abort has already paid this
			// event's tick.
			s.tick()
		}
	}
	s.until = -1
}

// begin records that the event keyed (Now(), seq) fires.
func (s *Simulator) begin(seq uint64) {
	s.last = seq
	s.events++
	if s.hook != nil {
		s.hook(s.now, seq)
	}
}

// tick runs the guard once every guardEvery events, after the event.
func (s *Simulator) tick() {
	if s.guard == nil {
		return
	}
	if s.guardLeft--; s.guardLeft == 0 {
		s.guardLeft = s.guardEvery
		if err := s.guard(); err != nil {
			s.guardErr = err
		}
	}
}

// Pending returns the number of live (not cancelled) queued events.
func (s *Simulator) Pending() int {
	s.release()
	return len(s.heap) - s.dead
}

// QueueLen returns the raw queue length including cancelled events that
// are still awaiting lazy collection. Diagnostics only.
func (s *Simulator) QueueLen() int {
	s.release()
	return len(s.heap)
}

// --- 4-ary indexed min-heap of slot ids, ordered by (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap and keeps the
// children of a node in one cache line, which is where a discrete-event
// simulator spends much of its life. The heap holds int32 slot ids, not
// pointers, so moving entries costs the garbage collector no write
// barrier; keys are read from the pool.

func (s *Simulator) heapPush(id int32) {
	i := len(s.heap)
	s.heap = append(s.heap, id)
	s.up(i)
}

// heapPopMin removes and returns the minimum slot.
func (s *Simulator) heapPopMin() int32 {
	h := s.heap
	id := h[0]
	s.evs[id].index = -1
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n > 0 {
		s.heap[0] = last
		s.down(0)
	}
	return id
}

func (s *Simulator) up(i int) {
	h, evs := s.heap, s.evs
	id := h[i]
	e := &evs[id]
	at, seq := e.at, e.seq
	for i > 0 {
		p := (i - 1) >> 2
		pid := h[p]
		pe := &evs[pid]
		if at > pe.at || (at == pe.at && seq > pe.seq) {
			break
		}
		h[i] = pid
		pe.index = int32(i)
		i = p
	}
	h[i] = id
	e.index = int32(i)
}

func (s *Simulator) down(i int) {
	h, evs := s.heap, s.evs
	n := len(h)
	id := h[i]
	e := &evs[id]
	at, seq := e.at, e.seq
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		me := &evs[h[c]]
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if je := &evs[h[j]]; je.at < me.at || (je.at == me.at && je.seq < me.seq) {
				m, me = j, je
			}
		}
		if me.at > at || (me.at == at && me.seq > seq) {
			break
		}
		h[i] = h[m]
		me.index = int32(i)
		i = m
	}
	h[i] = id
	e.index = int32(i)
}

// fix restores the heap invariant for the event at index i after its key
// changed. Exactly one of down/up can apply.
func (s *Simulator) fix(i int) {
	id := s.heap[i]
	s.down(i)
	if s.evs[id].index == int32(i) {
		s.up(i)
	}
}

// reschedule moves a queued event to a new time, consuming a fresh
// sequence number exactly as scheduling a new event would, so the
// (at, seq) stream — and therefore every run — is bit-identical to the
// cancel-and-reallocate implementation it replaces. A cancelled event
// that is still queued is revived in place.
func (s *Simulator) reschedule(id int32, at Time) {
	s.release()
	if at < s.now {
		at = s.now
	}
	e := &s.evs[id]
	if e.cancelled {
		e.cancelled = false
		s.dead--
	}
	e.at = at
	e.seq = s.seq
	s.seq++
	s.fix(int(e.index))
}

// Timer is a restartable single-shot timer bound to a simulator, the
// building block for protocol retransmission/backoff timers. A timer is
// the Handler of its own expiry event.
type Timer struct {
	sim *Simulator
	fn  func()
	ev  EventRef
}

// NewTimer creates a stopped timer that runs fn when it expires.
func NewTimer(s *Simulator, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{sim: s, fn: fn}
}

// Fire implements Handler.
func (t *Timer) Fire() { t.fn() }

// Reset (re)arms the timer to fire after delay, cancelling any pending
// expiry. While the timer's event slot is still queued — pending, or
// stopped but not yet collected — it is moved to its new time and
// revived, not reallocated, so the rearm-per-ACK churn of a TCP
// retransmission timer and the pause-and-resume of a MAC backoff cost
// one heap fix, no allocation and no dead queue entry.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	s := t.sim
	at := s.now + delay
	if e := t.ev.ev(); e != nil && e.index >= 0 {
		s.reschedule(t.ev.id, at)
		return
	}
	id := s.enqueue(at, s.seq)
	s.seq++
	t.ev = EventRef{s: s, id: id, gen: s.keep(id, t).gen}
}

// Stop cancels the timer if pending. Returns true if a pending expiry was
// cancelled. The timer keeps its queued slot for the next Reset to
// revive.
func (t *Timer) Stop() bool { return t.ev.Cancel() }

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// ExpiresAt returns the virtual time at which the timer will fire, or
// zero when it is not armed.
func (t *Timer) ExpiresAt() Time {
	if !t.ev.Pending() {
		return 0
	}
	return t.ev.Time()
}
