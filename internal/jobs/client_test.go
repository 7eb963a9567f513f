package jobs

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"2", 2 * time.Second, true},
		{" 3 ", 3 * time.Second, true},
		{"0", 0, true},
		{"1.5", 1500 * time.Millisecond, true},
		{"0.5", 500 * time.Millisecond, true},
		{now.Add(4 * time.Second).Format(http.TimeFormat), 4 * time.Second, true},
		// A date already past clamps to zero rather than going negative.
		{now.Add(-10 * time.Second).Format(http.TimeFormat), 0, true},
		{"-1", 0, false},
		{"-1.5", 0, false},
		{"", 0, false},
		{"soon", 0, false},
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in, now)
		if ok != c.ok || got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestBackoffDelaySchedule pins the fixed retry schedule: 200ms
// doubling to a 5s cap, spread by ±25% of the nominal delay.
func TestBackoffDelaySchedule(t *testing.T) {
	want := []time.Duration{
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		3200 * time.Millisecond,
		5 * time.Second,
		5 * time.Second,
	}
	for i, w := range want {
		if got := delay(i, 0.5); got != w {
			t.Errorf("delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Shift overflow on absurd attempt counts must still hit the cap.
	if got := delay(62, 0.5); got != 5*time.Second {
		t.Errorf("delay(62) = %v, want the 5s cap", got)
	}
	if got := delay(0, 0); got != 150*time.Millisecond {
		t.Errorf("jittered delay at rnd=0 is %v, want 150ms (-25%%)", got)
	}
	if got := delay(0, 1); got != 250*time.Millisecond {
		t.Errorf("jittered delay at rnd=1 is %v, want 250ms (+25%%)", got)
	}
	if got := delay(5, 0); got != 3750*time.Millisecond {
		t.Errorf("jittered capped delay at rnd=0 is %v, want 3.75s", got)
	}
}

func TestClientRetriesBusyThenSucceeds(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0.5")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"busy"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"j1","state":"done"}`)
	}))
	defer ts.Close()

	var sleeps []time.Duration
	c := &Client{
		BaseURL:  ts.URL,
		Attempts: 5,
		sleep: func(ctx context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
		rand: func() float64 { return 0.5 },
	}
	j, err := c.Get(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j1" {
		t.Fatalf("got job %q", j.ID)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("made %d attempts, want 3", got)
	}
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times, want 2", len(sleeps))
	}
	// The daemon's fractional Retry-After (500ms) must stretch the
	// 200ms and 400ms backoff delays, never be ignored.
	for i, d := range sleeps {
		if d != 500*time.Millisecond {
			t.Errorf("sleep %d = %v, want the 500ms Retry-After hint", i, d)
		}
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad config"}`)
	}))
	defer ts.Close()

	c := &Client{
		BaseURL:  ts.URL,
		Attempts: 5,
		sleep: func(ctx context.Context, d time.Duration) error {
			t.Error("slept before a non-retryable error")
			return nil
		},
	}
	_, err := c.Get(context.Background(), "j1")
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 RemoteError", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("made %d attempts on a 4xx, want 1", got)
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "0.01")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()

	var slept int
	c := &Client{
		BaseURL:  ts.URL,
		Attempts: 3,
		sleep: func(ctx context.Context, d time.Duration) error {
			slept++
			return nil
		},
		rand: func() float64 { return 0.5 },
	}
	_, err := c.Get(context.Background(), "j1")
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want BusyError after the budget", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("made %d attempts, want the full budget of 3", got)
	}
	if slept != 2 {
		t.Fatalf("slept %d times, want 2", slept)
	}
}

func TestBusyErrorCarriesParsedRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1.5")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL} // zero Attempts: single attempt
	_, err := c.Get(context.Background(), "j1")
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want BusyError", err)
	}
	if busy.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 1.5s from the fractional header", busy.RetryAfter)
	}
}

// TestResultDetectsTruncatedBody serves a response whose body is cut
// short of its Content-Length — the silent-partial-read failure the
// client must turn into ErrTruncated, not a short []byte.
func TestResultDetectsTruncatedBody(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil || line == "\r\n" {
						break
					}
				}
				body := `[1,2`
				fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
					len(body)+64, body)
			}(conn)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &Client{BaseURL: "http://" + ln.Addr().String()}
	_, err = c.Result(ctx, "j1")
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestResultDetectsCorruptBodyAndRetries serves a body whose length
// matches Content-Length but does not decode; the client must flag it
// truncated/corrupt and spend its retry budget on it.
func TestResultDetectsCorruptBodyAndRetries(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		body := []byte(`{"bad":`)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	defer ts.Close()

	c := &Client{
		BaseURL:  ts.URL,
		Attempts: 2,
		sleep:    func(ctx context.Context, d time.Duration) error { return nil },
		rand:     func() float64 { return 0.5 },
	}
	_, err := c.Result(context.Background(), "j1")
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("made %d attempts, want 2 (corrupt bodies are retryable)", got)
	}
}

// TestResultWithoutContentLength: a chunked body carries no
// Content-Length, so the client reads it to EOF instead.
func TestResultWithoutContentLength(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.(http.Flusher).Flush()
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	got, err := c.Result(context.Background(), "j1")
	if err != nil || string(got) != `{"ok":true}` {
		t.Fatalf("Result = %q, %v", got, err)
	}
}

// TestRetryHintTracksBacklog exercises the queue-derived Retry-After:
// "1" before any observation, then mean duration scaled by the number
// of full waves ahead of the caller, clamped to [0.5, 60].
func TestRetryHintTracksBacklog(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{Workers: 2})
	if got := srv.RetryHint(); got != "1" {
		t.Fatalf("hint before any completion = %q, want the \"1\" fallback", got)
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.observeRunLocked(2 * time.Second)
	if srv.meanRun != 2.0 {
		t.Fatalf("first observation set meanRun = %v, want 2.0", srv.meanRun)
	}
	srv.observeRunLocked(time.Second)
	if math.Abs(srv.meanRun-1.8) > 1e-9 {
		t.Fatalf("EWMA after 2s,1s = %v, want 1.8", srv.meanRun)
	}

	// 3 queued + the caller = 2 waves on 2 workers at 2s each.
	srv.meanRun = 2.0
	srv.inFlight = 3
	if got := srv.retryHintLocked(); got != "4.0" {
		t.Fatalf("hint with a 3-deep backlog = %q, want \"4.0\"", got)
	}
	srv.inFlight = 0
	if got := srv.retryHintLocked(); got != "2.0" {
		t.Fatalf("hint with an empty queue = %q, want \"2.0\"", got)
	}
	srv.meanRun = 0.01
	if got := srv.retryHintLocked(); got != "0.5" {
		t.Fatalf("hint for sub-second jobs = %q, want the 0.5 floor", got)
	}
	srv.meanRun = 1e6
	if got := srv.retryHintLocked(); got != "60.0" {
		t.Fatalf("hint for pathological jobs = %q, want the 60 ceiling", got)
	}
	srv.meanRun = 0
}
