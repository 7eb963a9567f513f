package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// collectOutcomes gathers pool callbacks safely across goroutines.
type collectOutcomes struct {
	mu   sync.Mutex
	outs map[string]Outcome
}

func newCollect() *collectOutcomes {
	return &collectOutcomes{outs: make(map[string]Outcome)}
}

func (c *collectOutcomes) done(o Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outs[o.Key] = o
}

// runAll submits the jobs to a fresh pool, closes it, and returns the
// outcomes in job order.
func runAll(jobs []Job, workers int, opt Options) []Outcome {
	outs := make([]Outcome, len(jobs))
	p := NewPool(workers, opt)
	for i, job := range jobs {
		p.Submit(job, func(o Outcome) { outs[i] = o })
	}
	p.Close()
	return outs
}

// TestPoolRunsAllJobs: every submitted job runs and delivers its own
// outcome to its callback.
func TestPoolRunsAllJobs(t *testing.T) {
	p := NewPool(3, Options{})
	c := newCollect()
	for i := 0; i < 8; i++ {
		p.Submit(Job{Key: fmt.Sprintf("job-%d", i), Fn: func() (any, error) { return i * i, nil }}, c.done)
	}
	p.Close()
	if len(c.outs) != 8 {
		t.Fatalf("outcomes = %d, want 8", len(c.outs))
	}
	for i := 0; i < 8; i++ {
		o := c.outs[fmt.Sprintf("job-%d", i)]
		if o.Err != nil || o.Value != i*i {
			t.Fatalf("job %d outcome = %+v", i, o)
		}
	}
}

// TestExecuteOrderAndParallelism: a batch executed on the pool (as the
// sweeps run theirs) returns every outcome in job order at any worker
// width.
func TestExecuteOrderAndParallelism(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		jobs := make([]Job, 20)
		for i := range jobs {
			jobs[i] = Job{Key: fmt.Sprintf("job-%d", i), Fn: func() (any, error) { return i, nil }}
		}
		for i, o := range runAll(jobs, workers, Options{}) {
			if o.Key != jobs[i].Key || o.Err != nil || o.Value != i {
				t.Fatalf("workers=%d: outcome %d = %+v", workers, i, o)
			}
		}
	}
}

// TestPoolConcurrentSubmit: goroutines submitting at once, while the
// workers drain the queue, lose no job and no outcome.
func TestPoolConcurrentSubmit(t *testing.T) {
	p := NewPool(3, Options{})
	c := newCollect()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				p.Submit(Job{Key: key, Fn: func() (any, error) { return key, nil }}, c.done)
			}
		}()
	}
	wg.Wait()
	p.Close()
	if len(c.outs) != 100 {
		t.Fatalf("outcomes = %d, want 100", len(c.outs))
	}
	for key, o := range c.outs {
		if o.Err != nil || o.Value != key {
			t.Fatalf("outcome %s = %+v", key, o)
		}
	}
}

// TestPoolSubmitIsFIFO: a worker takes jobs in submission order, so one
// worker runs them exactly in the order they were submitted, however
// many queued up behind a busy job.
func TestPoolSubmitIsFIFO(t *testing.T) {
	release := make(chan struct{})
	var order []int
	p := NewPool(1, Options{})
	p.Submit(Job{Key: "gate", Fn: func() (any, error) { <-release; return nil, nil }}, nil)
	for i := 0; i < 50; i++ {
		p.Submit(Job{Key: fmt.Sprintf("job-%d", i), Fn: func() (any, error) {
			order = append(order, i)
			return nil, nil
		}}, nil)
	}
	close(release)
	p.Close()
	if len(order) != 50 {
		t.Fatalf("ran %d jobs, want 50", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("position %d ran job %d: order %v", i, got, order)
		}
	}
}

// TestPoolRunningAndClose: Running counts executing (not queued) jobs,
// Close waits for the queue to drain, and a closed pool takes no more
// work.
func TestPoolRunningAndClose(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	p := NewPool(1, Options{})
	c := newCollect()
	p.Submit(Job{Key: "busy", Fn: func() (any, error) {
		close(started)
		<-release
		return "done", nil
	}}, c.done)
	<-started
	p.Submit(Job{Key: "queued", Fn: func() (any, error) { return "ok", nil }}, c.done)
	if p.Running() != 1 {
		t.Fatalf("running=%d, want 1", p.Running())
	}
	close(release)
	p.Close()
	if len(c.outs) != 2 || p.Running() != 0 {
		t.Fatalf("outcomes=%d running=%d after Close, want 2/0", len(c.outs), p.Running())
	}
	p.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("closed pool accepted a job")
		}
	}()
	p.Submit(Job{Key: "late", Fn: func() (any, error) { return nil, nil }}, c.done)
}

// TestPoolContainsPanics: a panicking job is classified ErrPanic and
// its worker survives to run the next job.
func TestPoolContainsPanics(t *testing.T) {
	p := NewPool(1, Options{})
	c := newCollect()
	p.Submit(Job{Key: "boom", Fn: func() (any, error) { panic("kaboom") }}, c.done)
	p.Submit(Job{Key: "after", Fn: func() (any, error) { return 7, nil }}, c.done)
	p.Close()
	if boom := c.outs["boom"]; !errors.Is(boom.Err, ErrPanic) || boom.Class != ClassPanic {
		t.Fatalf("panic outcome = %+v", boom)
	}
	if after := c.outs["after"]; after.Err != nil || after.Value != 7 {
		t.Fatalf("worker died after panic: %+v", after)
	}
}

// TestExecutePanicContainment: in a batch executed on two workers, a
// panicking job is classified ErrPanic and the rest of the batch still
// completes.
func TestExecutePanicContainment(t *testing.T) {
	outs := runAll([]Job{
		{Key: "good-1", Fn: func() (any, error) { return "ok", nil }},
		{Key: "bomb", Fn: func() (any, error) { panic("boom") }},
		{Key: "good-2", Fn: func() (any, error) { return "ok", nil }},
	}, 2, Options{})
	if !errors.Is(outs[1].Err, ErrPanic) || outs[1].Class != ClassPanic {
		t.Fatalf("panic outcome %+v", outs[1])
	}
	if outs[0].Err != nil || outs[0].Value != "ok" || outs[2].Err != nil || outs[2].Value != "ok" {
		t.Fatalf("healthy jobs infected by the panic: %+v", outs)
	}
}

func TestPoolCanceledJobsAreNotReplayed(t *testing.T) {
	// A canceled run says nothing about the model (the daemon shut down
	// mid-job), so the nondeterminism replay must leave it alone — like
	// wall-clock deadline failures.
	calls := 0
	p := NewPool(1, Options{Replay: true})
	c := newCollect()
	p.Submit(Job{Key: "c", Fn: func() (any, error) {
		calls++
		return nil, fmt.Errorf("aborted: %w", ErrCanceled)
	}}, c.done)
	p.Close()
	o := c.outs["c"]
	if calls != 1 {
		t.Fatalf("canceled job ran %d times, want 1", calls)
	}
	if o.Replayed || o.Class != ClassCanceled {
		t.Fatalf("outcome = %+v, want unreplayed canceled", o)
	}
}

// TestPoolJournalResume: a job submitted to a new pool on the same
// journal is satisfied from it without running again.
func TestPoolJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2, Options{Journal: j})
	c := newCollect()
	p.Submit(Job{Key: "x", Fn: func() (any, error) { return 1, nil }}, c.done)
	p.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p2 := NewPool(2, Options{Journal: j2})
	c2 := newCollect()
	p2.Submit(Job{Key: "x", Fn: func() (any, error) {
		t.Error("journaled job re-ran")
		return nil, nil
	}}, c2.done)
	p2.Close()
	if o := c2.outs["x"]; !o.Resumed || string(o.Raw) != "1" {
		t.Fatalf("resume outcome = %+v", o)
	}
}

// TestExecuteResumesFromJournal: re-executing the same batch against
// the same journal must not re-run completed work, and failed entries
// keep their classification across the restart.
func TestExecuteResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ran := map[string]int{}
	mkJobs := func() []Job {
		return []Job{
			{Key: "ok-job", Fn: func() (any, error) { ran["ok-job"]++; return 42, nil }},
			{Key: "bad-job", Fn: func() (any, error) {
				ran["bad-job"]++
				return nil, fmt.Errorf("always: %w", ErrEventBudget)
			}},
		}
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	outs := runAll(mkJobs(), 1, Options{Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[1].Class != ClassEventBudget {
		t.Fatalf("first pass outcomes %+v", outs)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	outs2 := runAll(mkJobs(), 1, Options{Journal: j2})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if ran["ok-job"] != 1 || ran["bad-job"] != 1 {
		t.Fatalf("journaled jobs re-ran: %v", ran)
	}
	if !outs2[0].Resumed || !outs2[1].Resumed {
		t.Fatalf("resume not reported: %+v", outs2)
	}
	var v int
	if err := json.Unmarshal(outs2[0].Raw, &v); err != nil || v != 42 {
		t.Fatalf("resumed value %s (%v)", outs2[0].Raw, err)
	}
	if !errors.Is(outs2[1].Err, ErrEventBudget) || outs2[1].Class != ClassEventBudget {
		t.Fatalf("resumed failure lost its class: %+v", outs2[1])
	}
}
