package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ultrascalar/internal/fleet"
	"ultrascalar/internal/obs"
)

// The fleet workload: a fleet.Coordinator at its shipped defaults
// distributing the full 63-shard campaign (the campaign workload's
// campaign) to two in-process serve workers with the result cache off.
// Its merged report must match the direct campaign's digest.

// leaseLog times each shard job from the outside, at the workers' HTTP
// handlers: from the POST that created it to the last request the
// coordinator made about it (the fetch of its result).
type leaseLog struct {
	mu   sync.Mutex
	post map[string]time.Time
	last map[string]time.Time
}

func newLeaseLog() *leaseLog {
	return &leaseLog{post: map[string]time.Time{}, last: map[string]time.Time{}}
}

// bodyCapture keeps a copy of a response body.
type bodyCapture struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (b *bodyCapture) Write(p []byte) (int, error) {
	b.buf.Write(p)
	return b.ResponseWriter.Write(p)
}

// wrap is the worker handler middleware.
func (l *leaseLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
			bc := &bodyCapture{ResponseWriter: w}
			h.ServeHTTP(bc, r)
			var job struct{ ID string }
			if json.Unmarshal(bc.buf.Bytes(), &job) == nil && job.ID != "" {
				l.mu.Lock()
				l.post[r.Host+job.ID] = time.Now()
				l.mu.Unlock()
			}
			return
		}
		h.ServeHTTP(w, r)
		if id, ok := strings.CutPrefix(r.URL.Path, "/jobs/"); ok && r.Method == http.MethodGet {
			id, _, _ = strings.Cut(id, "/")
			l.mu.Lock()
			l.last[r.Host+id] = time.Now()
			l.mu.Unlock()
		}
	})
}

// leasesMs returns every shard job's latency.
func (l *leaseLog) leasesMs() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for k, p := range l.post {
		if t, ok := l.last[k]; ok {
			out = append(out, ms(t.Sub(p)))
		}
	}
	return out
}

// fleetRig is two workers and the direct campaign's digest.
type fleetRig struct {
	workers []*rig
	leases  *leaseLog
	want    string
}

func (f *fleetRig) stop() {
	for _, w := range f.workers {
		w.stop()
	}
}

func startFleet(e *env, n int, traced bool, want string) (*fleetRig, error) {
	f := &fleetRig{leases: newLeaseLog(), want: want}
	for i := 0; i < 2; i++ {
		w, err := startRig(filepath.Join(e.work, fmt.Sprintf("fleet%d-w%d", n, i)), false, traced, f.leases.wrap)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// fleetPass distributes the campaign once and checks the merged report.
func (f *fleetRig) pass(e *env, o *outcome, reg *obs.Registry) (*fleet.Coordinator, error) {
	var urls []string
	for _, w := range f.workers {
		urls = append(urls, w.base)
	}
	c, err := fleet.New(fleet.Config{Workers: urls, Metrics: reg,
		Campaign: fleet.CampaignSpec{Seed: e.seed, Window: campaignWindow, Trials: campaignTrials}})
	if err != nil {
		return nil, err
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		return nil, err
	}
	o.attempted += int64(len(rep.Cells))
	got, err := reportDigest(rep)
	if err != nil {
		return nil, err
	}
	if got != f.want {
		o.fail("fleet report digest %s, direct campaign %s", got, f.want)
	}
	return c, nil
}

func runFleet(e *env) (*outcome, error) {
	// A fleet pass is almost all heartbeat waits, so its wall-clock time
	// is steady and is what a user of the fleet waits for.
	o := &outcome{wallGated: true}
	n := 0
	build := func(traced bool) func() (*fleetRig, func(), error) {
		return func() (*fleetRig, func(), error) {
			n++
			want, err := directDigest(e.seed)
			if err != nil {
				return nil, nil, err
			}
			if rec := e.golden.recorded(e.seed, "campaign"); rec != nil && rec["digest"] != want {
				return nil, nil, fmt.Errorf("direct campaign digest %s, recorded %v", want, rec["digest"])
			}
			f, err := startFleet(e, n, traced, want)
			if err != nil {
				return nil, nil, err
			}
			return f, f.stop, nil
		}
	}
	f, stop, err := timedSetup(o, 9, build(false))
	if err != nil {
		return nil, err
	}
	if err := passes(e, o, func(int) error {
		_, err := f.pass(e, o, nil)
		return err
	}); err != nil {
		stop()
		return nil, err
	}
	stop()
	if !e.trace {
		o.opsMs = f.leases.leasesMs()
		return o, nil
	}

	// Traced: one pass on fresh traced workers with fleet metrics on.
	base := median(o.wall)
	o.wall = nil
	f, stop, err = build(true)()
	if err != nil {
		return nil, err
	}
	defer stop()
	reg := obs.NewRegistry()
	s := e.spans.begin(-1, "fleet", "fleet.run")
	t := time.Now()
	coord, err := f.pass(e, o, reg)
	wall := time.Since(t).Seconds()
	e.spans.end(s)
	if err != nil {
		return nil, err
	}
	var run float64
	for _, w := range f.workers {
		e.spans.importRecorder(w.rec, w.recEpoch, "serve", func(string) int { return s })
		for _, ev := range w.rec.Events("") {
			if ev.Name == "run" {
				run += float64(ev.DurUS) / 1000
			}
		}
	}
	leases := f.leases.leasesMs()
	snap := reg.Peek(0)
	if lease := snap.Histograms["fleet.shard_ms"].Sum; lease > 0 {
		e.layer["fleet.compute_frac"] = run / lease
	}
	e.layer["fleet.shard_p50_ms"] = median(leases)
	e.layer["fleet.shard_p99_ms"] = p99(leases)
	st := coord.Status()
	e.layer["fleet.dispatches"] = float64(st.Dispatches)
	e.layer["fleet.retries"] = float64(st.Retries)
	e.layer["fleet.hedges"] = float64(st.Hedges)
	var dup int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fleet.duplicate_results") {
			dup += v
		}
	}
	e.layer["fleet.duplicates"] = float64(dup)
	e.layer["obs.overhead_frac.fleet"] = wall/base - 1
	return o, nil
}
