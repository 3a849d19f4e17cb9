package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ultrascalar/internal/serve"
)

// Client speaks the usserve job API on behalf of the coordinator. All
// failures that carry an HTTP status come back as *HTTPError, so the
// retry layer can separate backpressure (503 + Retry-After: honor the
// hint, the worker is healthy) from worker trouble (transport errors,
// unexpected 5xx: count toward the worker's circuit breaker).

// HTTPError is a job-API rejection: the status, the serve error
// taxonomy kind, and any Retry-After hint the worker attached.
type HTTPError struct {
	Status     int
	Kind       string
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.Kind != "" {
		return fmt.Sprintf("worker returned %d (%s): %s", e.Status, e.Kind, e.Msg)
	}
	return fmt.Sprintf("worker returned %d: %s", e.Status, e.Msg)
}

// Backpressure reports whether the rejection is flow control from a
// healthy worker — shed, draining, or a tripped config breaker — as
// opposed to evidence the worker itself is unwell.
func (e *HTTPError) Backpressure() bool {
	switch e.Kind {
	case serve.KindShed, serve.KindDraining, serve.KindBreakerOpen:
		return true
	}
	return false
}

// Client is one worker's job-API handle.
type Client struct {
	// Base is the worker's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (nil = a client with a 10s request timeout;
	// the coordinator's lease machinery provides the real deadlines).
	HTTP *http.Client
}

// NewClient builds a worker client for the given base URL.
func NewClient(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 10 * time.Second},
	}
}

// errorBody mirrors the serve rejection JSON shape.
type errorBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// do issues a request and decodes either the success payload into out
// or a rejection into *HTTPError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return fmt.Errorf("fleet: building %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err // transport error: breaker-countable
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("fleet: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		herr := &HTTPError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Kind != "" {
			herr.Kind, herr.Msg = eb.Error.Kind, eb.Error.Message
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				herr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return herr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("fleet: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Submit posts a job and returns the accepted record.
func (c *Client) Submit(ctx context.Context, req serve.JobRequest) (serve.Job, error) {
	var job serve.Job
	err := c.do(ctx, http.MethodPost, "/jobs", req, &job)
	return job, err
}

// Job fetches one job's full record (state, error, report, cells).
func (c *Client) Job(ctx context.Context, id string) (serve.Job, error) {
	var job serve.Job
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &job)
	return job, err
}

// Progress fetches one job's shard-completion view — the coordinator's
// heartbeat probe. A positive wait long-polls: the worker holds the
// request until the view changes, the job is terminal, or wait (capped
// server-side) runs out. wait must stay below the HTTP client's
// timeout, or a healthy but idle job reads as a missed heartbeat.
func (c *Client) Progress(ctx context.Context, id string, wait time.Duration) (serve.Progress, error) {
	path := "/jobs/" + id + "/progress"
	if ms := wait.Milliseconds(); ms > 0 {
		path += "?wait=" + strconv.FormatInt(ms, 10)
	}
	var p serve.Progress
	err := c.do(ctx, http.MethodGet, path, nil, &p)
	return p, err
}

// Cancel asks the worker to stop a job. Used to reap hedge losers and
// expired leases; a 409 (already terminal) is success for our purposes
// and is returned as-is for the caller to ignore.
func (c *Client) Cancel(ctx context.Context, id string) (serve.Job, error) {
	var job serve.Job
	err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &job)
	return job, err
}

// Healthz probes worker liveness: the process is up and serving HTTP.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready probes worker readiness: alive AND accepting new jobs. A
// draining worker fails this while still answering Healthz, so
// dispatchers and chaos harnesses gate on Ready, not Healthz.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// IsBreakerFailure classifies an error from this client for the
// per-worker circuit breaker: transport errors (connection refused,
// reset, timeout — the worker or its network is gone) and non-
// backpressure 5xx responses count; backpressure and 4xx rejections do
// not — they come from a worker that is alive and reasoning.
func IsBreakerFailure(err error) bool {
	if err == nil {
		return false
	}
	if herr, ok := err.(*HTTPError); ok {
		return herr.Status >= 500 && !herr.Backpressure()
	}
	return true
}
