package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
)

// The HTTP surface. Endpoints:
//
//	GET    /healthz            process liveness (always 200)
//	GET    /readyz             readiness: 200, or 503 once draining
//	POST   /jobs               submit a JobRequest; 202 + job record
//	GET    /jobs               list all jobs in ID order
//	GET    /jobs/{id}          one job's record (state, error, report)
//	GET    /jobs/{id}/report   the finished job's report as text/plain
//	GET    /jobs/{id}/progress shard-completion counts; ?wait=<ms> long-polls
//	                           for a change, ?stream=1 streams NDJSON
//	DELETE /jobs/{id}          cancel a queued or running job
//	GET    /metrics            obs registry snapshot as JSON
//	GET    /metrics?format=prom  Prometheus text exposition
//	/debug/pprof/*             net/http/pprof (only with Config.EnablePprof)
//
// Rejections are JSON {"error": {"kind", "message"}} with the taxonomy
// kind; 503s (shed, draining, breaker-open) carry Retry-After.
//
// Every route is instrumented: serve.http_ms{route=...} latency
// histograms, serve.http_requests{route=...,code=...} counters, a
// serve.http_inflight gauge, and serve.errors{kind=...} counters for
// every taxonomy rejection. The progress route's latency includes the
// time a ?wait= long-poll or a ?stream=1 request is held open. Request
// logging is a sampled debug stream (1-in-8) so a scrape-heavy
// deployment does not drown the job log.

// httpMsBounds buckets route latencies from sub-millisecond health
// checks to multi-second report fetches.
var httpMsBounds = []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000}

// errorBody is the JSON shape of every rejection.
type errorBody struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeError renders a service error with its status and Retry-After,
// counting it into the error-taxonomy metrics.
func (m *Manager) writeError(w http.ResponseWriter, serr *Error) {
	if r := m.cfg.Metrics; r != nil {
		r.Counter(obs.LabeledName("serve.errors", obs.Label{Key: "kind", Value: serr.Kind})).Inc()
	}
	if serr.RetryAfter > 0 {
		secs := int(serr.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	var body errorBody
	body.Error.Kind = serr.Kind
	body.Error.Message = serr.Msg
	writeJSON(w, serr.Status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// statusRecorder captures the response code for route metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the service's HTTP mux.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	httpLog := m.log.With("http").Sampled(8)
	inflight := func() *obs.Gauge {
		if m.cfg.Metrics == nil {
			return nil
		}
		return m.cfg.Metrics.Gauge("serve.http_inflight")
	}()

	// handle registers an instrumented route: per-route latency
	// histogram, request counter by status code, in-flight gauge, and a
	// sampled debug log line.
	handle := func(pattern string, fn http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if m.cfg.Metrics == nil && !httpLog.Enabled(obslog.LevelDebug) {
				fn(w, r)
				return
			}
			if inflight != nil {
				inflight.Set(float64(m.inflight.Add(1)))
			}
			start := m.cfg.Clock()
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			fn(rec, r)
			elapsed := m.cfg.Clock().Sub(start)
			if inflight != nil {
				inflight.Set(float64(m.inflight.Add(-1)))
			}
			if reg := m.cfg.Metrics; reg != nil {
				reg.Histogram(obs.LabeledName("serve.http_ms",
					obs.Label{Key: "route", Value: pattern}), httpMsBounds).
					Observe(float64(elapsed.Nanoseconds()) / 1e6)
				reg.Counter(obs.LabeledName("serve.http_requests",
					obs.Label{Key: "route", Value: pattern},
					obs.Label{Key: "code", Value: strconv.Itoa(rec.code)})).Inc()
			}
			if httpLog.Enabled(obslog.LevelDebug) {
				httpLog.Debug("http",
					obslog.String("route", pattern), obslog.Int("code", rec.code),
					obslog.Duration("ms", elapsed))
			}
		})
	}

	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	handle("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if m.Draining() {
			m.writeError(w, &Error{Kind: KindDraining, Msg: "service is draining", Status: 503})
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})

	handle("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			m.writeError(w, &Error{Kind: KindInvalidConfig, Msg: "bad request body: " + err.Error(), Status: 400})
			return
		}
		job, serr := m.Submit(req)
		if serr != nil {
			m.writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusAccepted, job)
	})

	handle("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})

	handle("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, serr := m.Get(r.PathValue("id"))
		if serr != nil {
			m.writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})

	handle("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		job, serr := m.Get(r.PathValue("id"))
		if serr != nil {
			m.writeError(w, serr)
			return
		}
		if job.State != StateDone {
			m.writeError(w, &Error{
				Kind: KindNotFound, Status: 409,
				Msg: fmt.Sprintf("job %s is %s, not done", job.ID, job.State),
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, job.Report)
	})

	handle("GET /jobs/{id}/progress", m.handleProgress)

	handle("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, serr := m.Cancel(r.PathValue("id"))
		if serr != nil {
			m.writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})

	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if m.cfg.Metrics == nil {
			if r.URL.Query().Get("format") == "prom" {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				return
			}
			writeJSON(w, http.StatusOK, struct{}{})
			return
		}
		// Peek, not Snapshot: scrapes must not grow the in-process
		// snapshot series.
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := obs.WritePrometheus(w, m.cfg.Metrics.Peek(0)); err != nil {
				m.log.Warn("prometheus exposition failed", obslog.String("err", err.Error()))
			}
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Manifest obs.Manifest `json:"manifest"`
			Snapshot obs.Snapshot `json:"snapshot"`
		}{obs.NewManifest("usserve"), m.cfg.Metrics.Peek(0)})
	})

	if m.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	return mux
}

// maxProgressWait caps a ?wait= long-poll, whatever the client asks
// for, so a held request never outlives a sane client timeout. A var
// only so tests can shorten it.
var maxProgressWait = 60 * time.Second

// handleProgress serves one job's shard-completion view. Plain requests
// answer at once. ?wait=<ms> holds the request until the view changes
// from the one current on arrival, the job is terminal, the wait
// (capped at maxProgressWait) runs out, or the client goes away — a
// heartbeat that returns the moment its job finishes. ?stream=1 holds
// the connection and emits one NDJSON line per change until the job
// reaches a terminal state or the client goes away.
func (m *Manager) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if s := r.URL.Query().Get("wait"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			m.writeError(w, &Error{Kind: KindInvalidConfig, Status: 400,
				Msg: fmt.Sprintf("wait must be a non-negative integer of milliseconds, got %q", s)})
			return
		}
		wait = maxProgressWait
		if ms < maxProgressWait.Milliseconds() {
			wait = time.Duration(ms) * time.Millisecond
		}
	}
	cur, serr := m.Progress(id)
	if serr != nil {
		m.writeError(w, serr)
		return
	}
	stream := r.URL.Query().Get("stream") != ""
	if !stream && (wait == 0 || TerminalState(cur.State)) {
		writeJSON(w, http.StatusOK, cur)
		return
	}

	// progCond has no timed wait, so wake the waiter when the context
	// ends — the client disconnecting or, for a long-poll, the wait
	// running out; WaitProgress then returns and the gone check ends
	// the request.
	ctx := r.Context()
	if !stream {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.progCond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	gone := func() bool { return ctx.Err() != nil }

	if !stream {
		next, serr := m.WaitProgress(id, cur, gone)
		if serr != nil {
			m.writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusOK, next)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for {
		if err := enc.Encode(cur); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if TerminalState(cur.State) || gone() {
			return
		}
		next, serr := m.WaitProgress(id, cur, gone)
		if serr != nil || gone() {
			return
		}
		if next == cur && TerminalState(next.State) {
			return
		}
		cur = next
	}
}
