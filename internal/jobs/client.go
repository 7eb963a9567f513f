package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// Attempts is the total number of tries per request; <= 1 makes
	// exactly one attempt and surfaces BusyError to the caller. Retries
	// follow the fixed schedule of delay. Retrying submissions is safe:
	// admission is keyed by config hash, so a resent request lands on
	// the cache or coalesces onto the in-flight run instead of
	// duplicating work.
	Attempts int

	// sleep and rand are test seams for the backoff schedule.
	sleep func(ctx context.Context, d time.Duration) error
	rand  func() float64
}

// The retry schedule: delays grow retryBase, 2*retryBase, 4*retryBase,
// ... capped at retryMax, and each is spread by ±retryJitter/2 of itself
// so clients rejected together do not return in lockstep.
const (
	retryBase   = 200 * time.Millisecond
	retryMax    = 5 * time.Second
	retryJitter = 0.5
)

// delay computes the sleep before retry number attempt (0-based); rnd
// in [0, 1) places it within the jitter band.
func delay(attempt int, rnd float64) time.Duration {
	d := retryBase << uint(attempt)
	if d > retryMax || d <= 0 { // d <= 0 guards shift overflow
		d = retryMax
	}
	return time.Duration(float64(d) * (1 - retryJitter/2 + retryJitter*rnd))
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

// withRetry runs fn up to c.Attempts times. The daemon's Retry-After
// hint stretches (never shrinks below) the backoff delay: the daemon
// knows its own queue.
func (c *Client) withRetry(ctx context.Context, fn func() error) error {
	var err error
	for i := 0; ; i++ {
		err = fn()
		if err == nil || i+1 >= c.Attempts || !retryable(err) {
			return err
		}
		d := delay(i, c.randFn()())
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
	var body []byte
	if resp.StatusCode == http.StatusOK && resp.ContentLength >= 0 {
		// The daemon always sets Content-Length on a result, so read into
		// a slice of exactly that size: a growing buffer would keep up to
		// half again as much memory for as long as the caller holds it.
		body = make([]byte, resp.ContentLength)
		if n, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("%w: got %d of %d bytes: %v", ErrTruncated, n, resp.ContentLength, err)
		}
	} else if body, err = io.ReadAll(resp.Body); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp, body)
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("%w: body is not valid JSON", ErrTruncated)
	}
	return body, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Stream follows a job's SSE progress feed, invoking onProgress per
// snapshot, and returns the terminal Job from the "done" event. A
// stream that ends without a done event (daemon drain) falls back to
// Get. It is the client's one way to wait for a job; the Result is
// then fetched with Result.
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
