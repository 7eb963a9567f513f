package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one unit of sweep work. Fn must be re-runnable: the pool
// invokes it again to classify a failure as deterministic or divergent.
type Job struct {
	// Key uniquely and stably identifies the job across sweep restarts;
	// it is the journal key.
	Key string
	// Fn performs the run. It is called from a worker goroutine and must
	// not share mutable state with other jobs.
	Fn func() (any, error)
}

// Outcome is one job's terminal state.
type Outcome struct {
	Key string
	// Value is Fn's result for jobs that ran; nil for resumed jobs
	// (decode Raw instead) and failures.
	Value any
	// Raw is the journaled result for resumed jobs.
	Raw json.RawMessage
	// Err is the classified failure, nil on success.
	Err error
	// Class is Classify(Err).
	Class Class
	// Resumed is set when the outcome was satisfied from the journal
	// without running Fn.
	Resumed bool
	// Replayed is set when the failure replay ran.
	Replayed bool
}

// Options configures a Pool.
type Options struct {
	// Journal, when non-nil, records outcomes as they complete and
	// satisfies jobs it already holds without re-running them.
	Journal *Journal
	// Replay re-runs each failed job once: an identical failure class
	// keeps its classification, a different outcome reclassifies the job
	// ErrNonDeterministic. Wall-clock deadline failures are exempt —
	// they depend on host load, not the model.
	Replay bool
}

// runJob executes (or resumes) one job with panic containment, failure
// replay and journaling.
func runJob(job Job, opt Options) Outcome {
	out := Outcome{Key: job.Key}
	if opt.Journal != nil {
		if e, ok := opt.Journal.Lookup(job.Key); ok && (!e.OK || len(e.Value) > 0) {
			out.Resumed = true
			out.Raw = e.Value
			out.Class = Class(e.Class)
			if !e.OK {
				out.Err = resumeError(out.Class, e.Err)
			}
			return out
		}
	}

	v, err := safeCall(job.Fn)
	if err != nil && opt.Replay && Classify(err) != ClassDeadline && Classify(err) != ClassCanceled {
		out.Replayed = true
		_, err2 := safeCall(job.Fn)
		if Classify(err2) != Classify(err) {
			err = fmt.Errorf("%w: first attempt failed (%v) but replay %s",
				ErrNonDeterministic, err, describeReplay(err2))
		}
	}
	out.Value, out.Err = v, err
	out.Class = Classify(err)
	if err != nil {
		out.Value = nil
	}

	if opt.Journal != nil {
		e := Entry{Key: job.Key, OK: err == nil, Class: string(out.Class)}
		if err != nil {
			e.Err = err.Error()
		} else if b, merr := json.Marshal(v); merr == nil {
			e.Value = b
		}
		opt.Journal.Record(e)
	}
	return out
}

func describeReplay(err error) string {
	if err == nil {
		return "succeeded"
	}
	return fmt.Sprintf("failed differently (%v)", err)
}

// Pool is the supervised worker pool every batch sweep and the muzhad
// daemon run on. Jobs are submitted one at a time into an unbounded
// FIFO queue; a fixed set of workers takes them in submission order,
// runs each with panic containment, optional replay classification and
// journaling, and hands the outcome to its submit-time callback. The
// pool never aborts early: a failed, panicking or stuck job is
// classified and the queued jobs still run. Each Fn executes
// single-threaded within its worker, so per-job results are independent
// of the worker count. Admission control belongs to the caller (the
// daemon's in-flight limit); the pool itself never refuses work.
type Pool struct {
	opt     Options
	wg      sync.WaitGroup
	mu      sync.Mutex
	ready   *sync.Cond // signaled on Submit and Close
	queue   []poolItem
	closed  bool
	running atomic.Int64
}

type poolItem struct {
	job  Job
	done func(Outcome)
}

// NewPool starts workers goroutines (<= 0 uses GOMAXPROCS) consuming
// the pool's queue.
func NewPool(workers int, opt Options) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{opt: opt}
	p.ready = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.work()
	}
	return p
}

// work runs queued jobs until the pool is closed and its queue empty.
func (p *Pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.ready.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		it := p.queue[0]
		p.queue[0] = poolItem{}
		p.queue = p.queue[1:]
		p.running.Add(1)
		p.mu.Unlock()

		out := runJob(it.job, p.opt)
		p.running.Add(-1)
		if it.done != nil {
			it.done(out)
		}
	}
}

// Submit queues the job behind every job submitted before it; done,
// when non-nil, receives its outcome from a worker goroutine. Submit
// never blocks and never refuses a job. Submitting to a closed pool is
// a programming error and panics.
func (p *Pool) Submit(job Job, done func(Outcome)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("harness: Submit on a closed Pool")
	}
	p.queue = append(p.queue, poolItem{job: job, done: done})
	p.ready.Signal()
}

// Running reports how many jobs are executing right now (not queued).
func (p *Pool) Running() int { return int(p.running.Load()) }

// Close stops intake and blocks until every queued and running job has
// finished and delivered its outcome. A service that must bound the
// wait cancels its in-flight jobs (closing their Cancel channels)
// before or during Close. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// safeCall invokes fn, converting a panic into an ErrPanic-classed
// error so one broken job cannot kill its worker goroutine.
func safeCall(fn func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return fn()
}
