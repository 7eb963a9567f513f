package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"muzha"
)

// Client talks to a muzhad daemon. The zero HTTPClient uses
// http.DefaultClient; streaming requests get no timeout (they are
// ended by the daemon or the context).
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7370".
	BaseURL string
	// ClientID, when set, is sent as X-Muzha-Client so the daemon's
	// per-client limits see one logical submitter across connections.
	ClientID string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Retry is the request retry policy. The zero value makes exactly
	// one attempt and surfaces BusyError to the caller. Retrying
	// submissions is safe: admission is keyed by config hash, so a
	// resent request lands on the cache or coalesces onto the in-flight
	// run instead of duplicating work.
	Retry Backoff

	// sleep and rand are test seams for the backoff schedule.
	sleep func(ctx context.Context, d time.Duration) error
	rand  func() float64
}

// Backoff is a jittered exponential retry policy with a budget.
// Attempts is the total try count (<= 1 disables retries); delays grow
// Base, 2*Base, 4*Base, ... capped at Max, and Jitter randomizes each
// delay by ±Jitter/2 of itself so clients rejected together do not
// return in lockstep. A Retry-After hint larger than the
// computed delay wins — the daemon knows its own queue.
type Backoff struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
	Jitter   float64
}

// DefaultBackoff is the policy muzhasim -remote uses: 5 attempts,
// 200ms base, 5s cap, half-width jitter.
func DefaultBackoff() Backoff {
	return Backoff{Attempts: 5, Base: 200 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.5}
}

// delay computes the sleep before retry number attempt (0-based).
func (b Backoff) delay(attempt int, rnd func() float64) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	if b.Jitter > 0 && rnd != nil {
		// Spread across [1-Jitter/2, 1+Jitter/2) of the nominal delay.
		d = time.Duration(float64(d) * (1 - b.Jitter/2 + b.Jitter*rnd()))
	}
	return d
}

// ErrTruncated marks a result fetch whose body was shorter than the
// daemon advertised or did not decode — a connection cut mid-download.
// It is retryable.
var ErrTruncated = errors.New("jobs: truncated or corrupt response body")

// BusyError is returned when the daemon pushes back (HTTP 429/503).
type BusyError struct {
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("daemon busy (HTTP %d, retry after %v): %s", e.Status, e.RetryAfter, e.Msg)
}

// RemoteError is any other non-2xx daemon response.
type RemoteError struct {
	Status int
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("daemon error (HTTP %d): %s", e.Status, e.Msg)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.BaseURL, "/")+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.ClientID != "" {
		req.Header.Set("X-Muzha-Client", c.ClientID)
	}
	return req, nil
}

// apiError converts a non-2xx response body into a typed error.
func apiError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		retry := time.Second
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			retry = d
		}
		return &BusyError{Status: resp.StatusCode, RetryAfter: retry, Msg: msg}
	}
	return &RemoteError{Status: resp.StatusCode, Msg: msg}
}

// parseRetryAfter accepts every Retry-After form a daemon may send:
// integer seconds ("2"), fractional seconds ("1.5" — muzhad's
// queue-derived hints), and an HTTP-date, which yields the delta from
// now (clamped at zero for dates already past).
func parseRetryAfter(s string, now time.Time) (time.Duration, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 {
			return 0, false
		}
		return time.Duration(n) * time.Second, true
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if f < 0 {
			return 0, false
		}
		return time.Duration(f * float64(time.Second)), true
	}
	if t, err := http.ParseTime(s); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// retryable reports whether an error is worth another attempt:
// backpressure, transport failures (a restarting daemon), server-side
// 5xx, and truncated downloads. Client mistakes (4xx) and canceled
// contexts are final.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return remote.Status >= 500
	}
	// BusyError, url.Error/net transport errors, ErrTruncated.
	return true
}

func (c *Client) sleepFn() func(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep
	}
	return func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

func (c *Client) randFn() func() float64 {
	if c.rand != nil {
		return c.rand
	}
	return rand.Float64
}

// withRetry runs fn under the client's backoff policy. The daemon's
// Retry-After hint stretches (never shrinks below) the backoff delay.
func (c *Client) withRetry(ctx context.Context, fn func() error) error {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; ; i++ {
		err = fn()
		if err == nil || i+1 >= attempts || !retryable(err) {
			return err
		}
		d := c.Retry.delay(i, c.randFn())
		var busy *BusyError
		if errors.As(err, &busy) && busy.RetryAfter > d {
			d = busy.RetryAfter
		}
		if serr := c.sleepFn()(ctx, d); serr != nil {
			return err
		}
	}
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	return c.withRetry(ctx, func() error { return c.doOnce(ctx, method, path, body, out) })
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp, buf.Bytes())
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// Submit sends one config; the returned Job may already be done (cache
// hit) or shared with an identical in-flight submission (coalesced).
func (c *Client) Submit(ctx context.Context, cfg muzha.Config) (Job, error) {
	body, err := json.Marshal(map[string]muzha.Config{"config": cfg})
	if err != nil {
		return Job{}, err
	}
	var j Job
	err = c.do(ctx, http.MethodPost, "/v1/jobs", body, &j)
	return j, err
}

// SubmitSweep sends a batch; admission is atomic — either every
// not-yet-cached config is queued or the daemon returns a BusyError.
func (c *Client) SubmitSweep(ctx context.Context, cfgs []muzha.Config) ([]Job, error) {
	body, err := json.Marshal(map[string][]muzha.Config{"configs": cfgs})
	if err != nil {
		return nil, err
	}
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", body, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Get fetches one job's current record.
func (c *Client) Get(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j)
	return j, err
}

// Result fetches a done job's raw canonical Result bytes. A body
// shorter than the advertised Content-Length or one that does not
// decode — a connection cut mid-download — returns ErrTruncated rather
// than a silently partial result, and is retried under the backoff
// policy.
func (c *Client) Result(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.withRetry(ctx, func() error {
		b, err := c.resultOnce(ctx, id)
		out = b
		return err
	})
	return out, err
}

func (c *Client) resultOnce(ctx context.Context, id string) (json.RawMessage, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp, buf.Bytes())
	}
	if resp.ContentLength >= 0 && int64(buf.Len()) != resp.ContentLength {
		return nil, fmt.Errorf("%w: got %d of %d bytes", ErrTruncated, buf.Len(), resp.ContentLength)
	}
	if !json.Valid(buf.Bytes()) {
		return nil, fmt.Errorf("%w: body is not valid JSON", ErrTruncated)
	}
	return buf.Bytes(), nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Wait polls until the job is terminal or ctx is done.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		j, err := c.Get(ctx, id)
		if err != nil {
			return Job{}, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-t.C:
		}
	}
}

// Stream follows a job's SSE progress feed, invoking onProgress per
// snapshot, and returns the terminal Job from the "done" event. A
// stream that ends without a done event (daemon drain) falls back to
// Get.
func (c *Client) Stream(ctx context.Context, id string, onProgress func(Progress)) (Job, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return Job{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	// Streams outlive any sane request timeout; rely on ctx instead.
	hc := *c.httpClient()
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return Job{}, apiError(resp, buf.Bytes())
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var p Progress
				if json.Unmarshal([]byte(data), &p) == nil && onProgress != nil {
					onProgress(p)
				}
			case "done":
				var j Job
				if err := json.Unmarshal([]byte(data), &j); err != nil {
					return Job{}, fmt.Errorf("jobs: bad done event: %w", err)
				}
				return j, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Job{}, err
	}
	// Stream ended without a terminal event; ask once more directly.
	return c.Get(ctx, id)
}
