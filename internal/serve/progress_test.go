package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ultrascalar/internal/obs"
)

// blockingServer is a one-executor service whose jobs run until
// release is closed (or their context ends).
func blockingServer(t *testing.T, cfg Config) (*Manager, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	cfg.Workers = 1
	m, srv := newTestServer(t, cfg)
	m.testExec = func(ctx context.Context, job *Job) (string, error) {
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	return m, srv, release
}

// getProgress issues one progress request and decodes the view.
func getProgress(t *testing.T, ctx context.Context, url string) (Progress, int, time.Duration) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var p Progress
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatalf("decoding progress: %v", err)
		}
	}
	return p, resp.StatusCode, time.Since(start)
}

// TestProgressWaitReturnsOnChangeExpiryAndTerminal: a ?wait= long-poll
// holds a running job's request until the wait runs out, answers the
// moment the job's view changes, and never holds a finished job.
func TestProgressWaitReturnsOnChangeExpiryAndTerminal(t *testing.T) {
	m, srv, release := blockingServer(t, Config{})
	job, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4})
	if serr != nil {
		t.Fatal(serr)
	}
	waitState(t, m, job.ID, StateRunning)
	url := srv.URL + "/jobs/" + job.ID + "/progress"

	// Expiry: nothing changes, so the poll returns the running view
	// after the wait, not before.
	p, code, took := getProgress(t, context.Background(), url+"?wait=150")
	if code != 200 || p.State != StateRunning {
		t.Fatalf("expired wait: %d %+v", code, p)
	}
	if took < 150*time.Millisecond || took > 5*time.Second {
		t.Fatalf("wait=150 returned after %v", took)
	}

	// Change: the job finishing mid-wait ends a 30 s wait at once.
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	p, code, took = getProgress(t, context.Background(), url+"?wait=30000")
	if code != 200 || p.State != StateDone {
		t.Fatalf("wait across completion: %d %+v", code, p)
	}
	if took > 5*time.Second {
		t.Fatalf("completion did not end the wait: took %v", took)
	}

	// Terminal: a finished job answers a long wait immediately.
	p, code, took = getProgress(t, context.Background(), url+"?wait=30000")
	if code != 200 || p.State != StateDone || took > time.Second {
		t.Fatalf("wait on a finished job: %d %+v after %v", code, p, took)
	}
}

// TestProgressWaitRejectsBadValues: a malformed wait is a 400 with the
// invalid-config kind, and an unknown job stays a 404.
func TestProgressWaitRejectsBadValues(t *testing.T) {
	m, srv := newTestServer(t, Config{})
	job, serr := m.Submit(JobRequest{Kind: "sim", Arch: "ultra1", Window: 4, Workload: "fib"})
	if serr != nil {
		t.Fatal(serr)
	}
	for _, bad := range []string{"abc", "-1", "1.5", "1e3", "99999999999999999999"} {
		resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/progress?wait=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body := decodeError(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 400 || body.Error.Kind != KindInvalidConfig {
			t.Errorf("wait=%q: %d %q, want 400 %s", bad, resp.StatusCode, body.Error.Kind, KindInvalidConfig)
		}
	}
	resp, err := http.Get(srv.URL + "/jobs/job-999999/progress?wait=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job with wait: %d, want 404", resp.StatusCode)
	}
}

// TestProgressWaitIsClamped: however long a wait the client asks for,
// the server holds the request at most maxProgressWait.
func TestProgressWaitIsClamped(t *testing.T) {
	old := maxProgressWait
	maxProgressWait = 100 * time.Millisecond
	t.Cleanup(func() { maxProgressWait = old })
	m, srv, release := blockingServer(t, Config{})
	defer close(release)
	job, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4})
	if serr != nil {
		t.Fatal(serr)
	}
	waitState(t, m, job.ID, StateRunning)
	// 2^62 ms: far past the clamp, and past what a Duration can hold.
	p, code, took := getProgress(t, context.Background(),
		srv.URL+"/jobs/"+job.ID+"/progress?wait=4611686018427387904")
	if code != 200 || p.State != StateRunning {
		t.Fatalf("clamped wait: %d %+v", code, p)
	}
	if took < 100*time.Millisecond || took > 5*time.Second {
		t.Fatalf("clamped wait returned after %v, want about 100ms", took)
	}
}

// TestProgressWaitEndsOnDisconnect: a client that goes away ends its
// long-poll on the server, long before the wait would run out.
func TestProgressWaitEndsOnDisconnect(t *testing.T) {
	reg := obs.NewRegistry()
	m, srv, release := blockingServer(t, Config{Metrics: reg})
	defer close(release)
	job, serr := m.Submit(JobRequest{Kind: "sweep", Window: 4})
	if serr != nil {
		t.Fatal(serr)
	}
	waitState(t, m, job.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/jobs/"+job.ID+"/progress?wait=60000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("a 60 s wait on a running job answered within 100ms")
	}
	// The handler has returned once the route's request counter moves
	// (the instrumented wrapper counts after the handler exits).
	name := obs.LabeledName("serve.http_requests",
		obs.Label{Key: "route", Value: "GET /jobs/{id}/progress"}, obs.Label{Key: "code", Value: "200"})
	deadline := time.Now().Add(5 * time.Second)
	for reg.Peek(0).Counters[name] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the server kept holding the long-poll after the client went away")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
