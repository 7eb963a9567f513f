package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made. Spans of one op share Op;
// set-up and verification work carry opSetup and opVerify.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Events is the simulator event count of an "engine" span.
	Events uint64 `json:"events,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark writes them out at
// exit. A nil *tracer records nothing, which is how untraced phases run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// childNs[i] is the summed duration of span i+1's children, built
	// once the spans are complete.
	childNs []int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id, or 0 on a nil tracer.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endEvents(id, 0) }

// endEvents closes a span and records the simulator events it ran.
func (t *tracer) endEvents(id int, events uint64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Events = events
}

func (t *tracer) filter(keep func(span) bool) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// timed returns the spans named name that belong to timed ops.
func (t *tracer) timed(name string) []span {
	return t.filter(func(s span) bool { return s.Op >= 0 && s.Name == name })
}

// outside returns the spans named name recorded outside the timed phase.
func (t *tracer) outside(name string) []span {
	return t.filter(func(s span) bool { return s.Op < 0 && s.Name == name })
}

// timedOrVerify returns the timed spans named name or, for a layer the
// timed ops reach only inside the daemon, the verification re-runs'.
func (t *tracer) timedOrVerify(name string) []span {
	if spans := t.timed(name); len(spans) > 0 {
		return spans
	}
	return t.filter(func(s span) bool { return s.Op == opVerify && s.Name == name })
}

// childSumsMs returns, for every span named parent, the summed duration
// of its children named child, in milliseconds.
func (t *tracer) childSumsMs(child, parent string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name == parent {
			sums[s.ID] = 0
			order = append(order, s.ID)
		}
	}
	for _, s := range t.spans {
		if _, ok := sums[s.Parent]; ok && s.Name == child {
			sums[s.Parent] += ms(s.dur())
		}
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = sums[id]
	}
	return out
}

// self is a span's duration minus the part its children cover.
func (t *tracer) self(s span) time.Duration {
	if t.childNs == nil {
		t.childNs = make([]int64, len(t.spans))
		for _, c := range t.spans {
			if c.Parent > 0 {
				t.childNs[c.Parent-1] += int64(c.dur())
			}
		}
	}
	return s.dur() - time.Duration(t.childNs[s.ID-1])
}

func spanMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
