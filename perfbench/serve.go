package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
	obslog "ultrascalar/internal/obs/log"
	"ultrascalar/internal/serve"
	"ultrascalar/internal/workload"
)

// The serve workload: an in-process serve.Manager behind its HTTP
// handler on a loopback listener, default workers, result cache on,
// fresh state directory. Requests are a seeded mix of sim, sweep and
// single-cell campaign jobs sent over at most nproc keep-alive
// connections. Completion is observed in process
// (Manager.WaitProgress); the report is fetched over HTTP.
//
// A run has two phases. The fixed-rate phase is an open loop whose
// latencies give the printed p50/p99. The closed batch then sends a
// fixed set of requests from a few clients, each sending its next
// request as soon as its last report arrives, so the batch ends as soon
// as the service has done the work: the CPU time it takes is the gated
// work_s.
const (
	// serveRate is the fixed offered rate of the open-loop phase, which
	// sends serveRate x seconds requests but never fewer than serveN =
	// 1000, so its p99 has at least ten samples beyond it. At 100 req/s
	// one run in about forty collapsed after an fsync stall (p50 554 ms,
	// 7% of requests shed): with many requests in flight, every progress
	// broadcast wakes every waiter.
	serveRate = 50.0
	serveN    = 1000
	// serveBatch is the closed batch's size: eight blocks of the mix.
	serveBatch = 256
	// serveClients is the closed batch's concurrency: twice the
	// service's default two workers, so a worker always finds a job
	// queued while the clients fetch reports, yet the queue stays far
	// below the admission controller's 100 ms delay target and never
	// sheds.
	serveClients = 4
)

// jobClasses are the request classes.
var jobClasses = []string{"sim", "sweep", "campaign"}

// reqGen draws the seeded request mix in blocks of 32 requests: 24
// sims, 6 IPC sweeps and 2 single-cell campaigns, the 12:3:1 class mix
// that cmd/usload offers by default. Half of each class repeats an
// earlier config of that class (a cache hit once the first copy has
// finished); the other half are fresh configs that compute and store.
// The seed shuffles each block and picks the configs, so every seed
// offers the same class mix and repeat share.
type reqGen struct {
	rng    *rand.Rand
	fresh  map[string][]serve.JobRequest // unused fresh sim and sweep configs, shuffled
	camps  int64                         // fresh campaign seeds drawn so far
	issued map[string][]serve.JobRequest // configs sent so far, by class
	block  []slot
}

// slot is one position of a block.
type slot struct {
	class  string
	repeat bool
}

// blockPattern is one block's slots before shuffling.
var blockPattern = func() []slot {
	var b []slot
	for _, c := range []struct {
		class      string
		n, repeats int
	}{{"sim", 24, 12}, {"sweep", 6, 3}, {"campaign", 2, 1}} {
		for i := 0; i < c.n; i++ {
			b = append(b, slot{class: c.class, repeat: i < c.repeats})
		}
	}
	return b
}()

func newReqGen(seed int64) *reqGen {
	g := &reqGen{rng: rand.New(rand.NewSource(seed)), fresh: map[string][]serve.JobRequest{},
		issued: map[string][]serve.JobRequest{}}
	for _, arch := range engineArchs {
		for _, w := range workload.Kernels() {
			for n := 4; n <= 256; n += 4 {
				g.fresh["sim"] = append(g.fresh["sim"],
					serve.JobRequest{Kind: "sim", Arch: arch, Workload: w.Name, Window: n, Cluster: n / 4})
			}
		}
	}
	for n := 8; n <= 192; n += 4 {
		for c := 1; c <= n/2; c *= 2 {
			if n%c == 0 {
				g.fresh["sweep"] = append(g.fresh["sweep"], serve.JobRequest{Kind: "sweep", Window: n, Cluster: c})
			}
		}
	}
	for _, class := range []string{"sim", "sweep"} { // a fixed order, so the seed fixes the draw
		l := g.fresh[class]
		g.rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	return g
}

// next returns the next request.
func (g *reqGen) next() serve.JobRequest {
	if len(g.block) == 0 {
		g.block = append(g.block, blockPattern...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	sl := g.block[0]
	g.block = g.block[1:]
	prev := g.issued[sl.class]
	if sl.repeat && len(prev) > 0 {
		return prev[g.rng.Intn(len(prev))]
	}
	var req serve.JobRequest
	switch l := g.fresh[sl.class]; {
	case sl.class == "campaign":
		g.camps++
		sites := fault.AllSites()
		wls := exp.FaultWorkloads()
		req = serve.JobRequest{Kind: "campaign", Window: 16, Cluster: 4, Trials: 4,
			Seed:      g.rng.Int63n(1<<40)*1024 + g.camps,
			Archs:     []string{engineArchs[g.rng.Intn(len(engineArchs))]},
			Workloads: []string{wls[g.rng.Intn(len(wls))].Name},
			Sites:     []string{sites[g.rng.Intn(len(sites))].String()}}
	case len(l) > 0:
		req, g.fresh[sl.class] = l[0], l[1:]
	default:
		// The fresh pool is spent (its 182 sweeps last about 39 s at
		// serveRate): repeat instead.
		return prev[g.rng.Intn(len(prev))]
	}
	g.issued[sl.class] = append(g.issued[sl.class], req)
	return req
}

// requestKey identifies a request's content for the output check.
func requestKey(r serve.JobRequest) string {
	b, _ := json.Marshal(r)
	return string(b)
}

// directReport computes a request's report without the service, as the
// service's own compute step renders it.
func directReport(req serve.JobRequest) (string, error) {
	switch req.Kind {
	case "sim":
		cfg, err := exp.ArchConfig(req.Arch, req.Window, req.Cluster)
		if err != nil {
			return "", err
		}
		for _, w := range workload.Kernels() {
			if w.Name != req.Workload {
				continue
			}
			res, err := core.Run(w.Prog, w.Mem(), cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf(
				"usserve sim: arch=%s workload=%s window=%d cluster=%d\ncycles=%d retired=%d ipc=%.3f occupancy=%.1f\n",
				req.Arch, req.Workload, req.Window, req.Cluster,
				res.Stats.Cycles, res.Stats.Retired, res.Stats.IPC(), res.Stats.MeanOccupancy()), nil
		}
		return "", fmt.Errorf("unknown kernel %q", req.Workload)
	case "sweep":
		return exp.IPCReport(req.Window, req.Cluster)
	case "campaign":
		cfg := exp.FaultCampaignConfig{Seed: req.Seed, Window: req.Window, Cluster: req.Cluster, N: req.Trials,
			Archs: req.Archs, Detect: fault.DetectGolden}
		for _, s := range req.Sites {
			site, _ := fault.SiteFromString(s)
			cfg.Sites = append(cfg.Sites, site)
		}
		for _, name := range req.Workloads {
			for _, w := range exp.FaultWorkloads() {
				if w.Name == name {
					cfg.Workloads = append(cfg.Workloads, w)
				}
			}
		}
		rep, err := exp.RunFaultCampaign(cfg)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		err = rep.WriteText(&b)
		return b.String(), err
	}
	return "", fmt.Errorf("unknown kind %q", req.Kind)
}

// rig is one in-process service on a loopback listener.
type rig struct {
	m        *serve.Manager
	srv      *http.Server
	served   chan struct{}
	base     string
	reg      *obs.Registry
	rec      *obslog.SpanRecorder
	recEpoch time.Time
}

// startRig starts a Manager rooted at dir. traced switches on its
// metrics and spans; wrap, when set, wraps its HTTP handler.
func startRig(dir string, cache, traced bool, wrap func(http.Handler) http.Handler) (*rig, error) {
	r := &rig{served: make(chan struct{})}
	cfg := serve.Config{Dir: filepath.Join(dir, "state")}
	if cache {
		cfg.CacheDir = filepath.Join(dir, "cache")
	}
	if traced {
		r.reg = obs.NewRegistry()
		r.rec = obslog.NewSpanRecorder(obslog.SpanOptions{Cap: 1 << 20})
		r.recEpoch = time.Now()
		r.rec.Start("", "epoch", "").End()
		cfg.Metrics, cfg.Spans = r.reg, r.rec
	}
	m, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Drain(context.Background())
		return nil, err
	}
	h := m.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	r.m, r.srv, r.base = m, &http.Server{Handler: h}, "http://"+ln.Addr().String()
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return r, nil
}

// stop closes the listener and drains the manager, waiting for both.
func (r *rig) stop() {
	_ = r.srv.Close()
	<-r.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.m.Drain(ctx)
}

// newClient is the load generator's client: keep-alive connections, at
// most nproc of them.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// reply is one request's observed outcome.
type reply struct {
	req      serve.JobRequest
	report   string
	err      error
	submitMs float64
	trace    string
	span     int
}

// errShed marks a request the service refused under load.
var errShed = errors.New("shed")

// call submits one job over HTTP, waits for it in process, and fetches
// its report over HTTP.
func (r *rig) call(c *http.Client, sp *spanLog, req serve.JobRequest, rep *reply) error {
	rep.req = req
	body, _ := json.Marshal(req)
	rep.span = sp.begin(-1, "client", "client.request")
	defer sp.end(rep.span)
	t := time.Now()
	sub := sp.begin(rep.span, "client", "client.submit")
	resp, err := c.Post(r.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end(sub)
		return err
	}
	var job serve.Job
	derr := json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	sp.end(sub)
	rep.submitMs = ms(time.Since(t))
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		return errShed
	case resp.StatusCode != http.StatusAccepted:
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case derr != nil:
		return fmt.Errorf("submit: %w", derr)
	}
	rep.trace = job.Trace
	var p serve.Progress
	for {
		var serr *serve.Error
		if p, serr = r.m.WaitProgress(job.ID, p, nil); serr != nil {
			return serr
		}
		if p.State != serve.StateQueued && p.State != serve.StateRunning {
			break
		}
	}
	if p.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s", job.ID, p.State)
	}
	fetch := sp.begin(rep.span, "client", "client.fetch")
	defer sp.end(fetch)
	resp, err = c.Get(r.base + "/jobs/" + job.ID + "/report")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("report: HTTP %d", resp.StatusCode)
	}
	rep.report = string(text)
	return nil
}

// phase runs one open-loop phase against the rig.
func (r *rig) phase(c *http.Client, sp *spanLog, g *reqGen, rate float64, n int) (loopResult, []reply) {
	reqs := make([]serve.JobRequest, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	replies := make([]reply, n)
	res := openLoop{Rate: rate, N: n}.run(func(i int) error {
		err := r.call(c, sp, reqs[i], &replies[i])
		replies[i].err = err
		return err
	})
	return res, replies
}

// batch sends n requests from serveClients closed-loop clients. It
// returns the wall-clock time from the first submit to the last report
// and the user-mode CPU time this process (service and clients) spent
// meanwhile.
func (r *rig) batch(c *http.Client, g *reqGen, n int) (wall, cpu time.Duration, replies []reply) {
	reqs := make([]serve.JobRequest, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	replies = make([]reply, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := selfUserCPU()
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				replies[i].err = r.call(c, nil, reqs[i], &replies[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(start), selfUserCPU() - cpu0, replies
}

// meterSelfTest checks the latency meter against a handler that sleeps
// a known time: every sample, and so every quantile, must be at least
// that long, and quantiles must be samples.
func meterSelfTest() error {
	const sleep = 20 * time.Millisecond
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(sleep)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	defer func() { _ = srv.Close(); <-done }()
	c := newClient()
	defer c.CloseIdleConnections()
	url := "http://" + ln.Addr().String()
	res := openLoop{Rate: 200, N: 40}.run(func(int) error {
		resp, err := c.Get(url)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
	if res.Failed > 0 || len(res.LatencyMs) != 40 {
		return fmt.Errorf("meter self-test: %d of 40 requests failed", res.Failed)
	}
	floor := ms(sleep)
	for _, v := range res.LatencyMs {
		if v < floor {
			return fmt.Errorf("meter self-test: latency %.3f ms below the handler's %.0f ms sleep", v, floor)
		}
	}
	q := median(res.LatencyMs)
	found := false
	for _, v := range res.LatencyMs {
		found = found || v == q
	}
	if !found || q < floor {
		return fmt.Errorf("meter self-test: median %.3f ms is not a sample at or above %.0f ms", q, floor)
	}
	return nil
}

// checkReplies compares every report with a direct computation of its
// request, memoised in want, and counts failures into o.
func checkReplies(o *outcome, want map[string]string, replies []reply) error {
	for _, rp := range replies {
		o.attempted++
		if rp.err != nil {
			o.fail("%s request: %v", rp.req.Kind, rp.err)
			continue
		}
		k := requestKey(rp.req)
		w, ok := want[k]
		if !ok {
			var err error
			if w, err = directReport(rp.req); err != nil {
				return fmt.Errorf("direct %s: %w", k, err)
			}
			want[k] = w
		}
		if rp.report != w {
			o.fail("%s report differs from direct computation: %s", rp.req.Kind, k)
		}
	}
	return nil
}

func runServe(e *env) (*outcome, error) {
	o := &outcome{}
	if err := meterSelfTest(); err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	n := 0
	start := func(traced bool) func() (*rig, func(), error) {
		return func() (*rig, func(), error) {
			n++
			r, err := startRig(filepath.Join(e.work, fmt.Sprintf("rig%d", n)), true, traced, nil)
			if err != nil {
				return nil, nil, err
			}
			resp, err := c.Get(r.base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("service not ready: HTTP %d", resp.StatusCode)
				}
			}
			if err != nil {
				r.stop()
				return nil, nil, err
			}
			return r, r.stop, nil
		}
	}
	// Set-up is the service coming up and answering its readiness probe.
	// It takes a few milliseconds of CPU time, so it is measured many
	// times.
	r, stop, err := timedSetup(o, 21, start(false))
	if err != nil {
		return nil, err
	}
	want := map[string]string{}

	count := max(serveN, int(serveRate*e.seconds.Seconds()))
	res, replies := r.phase(c, nil, newReqGen(e.seed), serveRate, count)
	stop()
	if err := checkReplies(o, want, replies); err != nil {
		return nil, err
	}
	if !e.trace {
		o.opsMs = res.LatencyMs
		// The closed batch, repeated for the run's time, each pass on a
		// fresh service so each starts with empty caches. Every pass
		// sends the same requests. The gated work_s is the batch's user
		// CPU time: its wall-clock and system CPU time follow the shared
		// disk's fsync latency (see README.md), so the wall-clock time
		// is printed with capacity_rps but not gated.
		t0 := time.Now()
		for len(o.wall) == 0 || time.Since(t0)+time.Duration(median(o.wall)*float64(time.Second)) <= e.seconds {
			if r, stop, err = start(false)(); err != nil {
				return nil, err
			}
			wall, cpu, reps := r.batch(c, newReqGen(e.seed), serveBatch)
			stop()
			o.wall = append(o.wall, wall.Seconds())
			o.cpu = append(o.cpu, cpu.Seconds())
			if err := checkReplies(o, want, reps); err != nil {
				return nil, err
			}
		}
		o.notes = append(o.notes,
			fmt.Sprintf("closed batch of %d requests: wall-clock median %.6g s, user CPU median %.6g s (work_s)",
				serveBatch, median(o.wall), median(o.cpu)),
			fmt.Sprintf("capacity_rps = %.6g 1/s (batch size / wall-clock median; not in the result line)",
				serveBatch/median(o.wall)))
		return o, nil
	}

	// Traced: the same phase on a fresh traced service with the same
	// seed, so both see the same requests.
	base := median(res.LatencyMs)
	r, stop, err = start(true)()
	if err != nil {
		return nil, err
	}
	var level float64
	sampled := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				level = math.Max(level, r.reg.Gauge("serve.admit_level").Value())
			}
		}
	}()
	tres, treps := r.phase(c, e.spans, newReqGen(e.seed), serveRate, count)
	close(quit)
	<-sampled
	stop()
	if err := checkReplies(o, want, treps); err != nil {
		return nil, err
	}
	serveLayer(e, r, tres, treps, base, level)
	return o, nil
}

// serveLayer derives the serve, rescache and load-generator metrics of
// the traced phase.
func serveLayer(e *env, r *rig, res loopResult, replies []reply, base, level float64) {
	parent := map[string]int{}
	byClass := map[string][]float64{}
	var submit []float64
	for i, rp := range replies {
		parent[rp.trace] = rp.span
		submit = append(submit, rp.submitMs)
		if rp.err == nil {
			byClass[rp.req.Kind] = append(byClass[rp.req.Kind], res.ByIndex[i])
		}
	}
	e.spans.importRecorder(r.rec, r.recEpoch, "serve", func(t string) int {
		if p, ok := parent[t]; ok {
			return p
		}
		return -1
	})
	runs := map[string][]float64{}
	for _, ev := range r.rec.Events("") {
		if ev.Name == "run" {
			runs[ev.Detail] = append(runs[ev.Detail], float64(ev.DurUS)/1000)
		}
	}
	queue := e.spans.durations("serve.queue")
	e.layer["serve.submit_p50_ms"] = median(submit)
	e.layer["serve.submit_p99_ms"] = p99(submit)
	e.layer["serve.queue_wait_p50_ms"] = median(queue)
	e.layer["serve.queue_wait_p99_ms"] = p99(queue)
	for _, cl := range jobClasses {
		e.layer["serve."+cl+".run_p50_ms"] = median(runs[cl])
		e.layer["serve."+cl+".p50_ms"] = median(byClass[cl])
		e.layer["serve.shed."+cl] = float64(r.reg.Counter(obs.LabeledName("serve.shed_class",
			obs.Label{Key: "class", Value: cl})).Value())
	}
	e.layer["serve.admit_level_max"] = level
	hits := float64(r.reg.Counter("serve.cache.hits").Value())
	misses := float64(r.reg.Counter("serve.cache.misses").Value())
	e.layer["rescache.hits"] = hits
	e.layer["rescache.misses"] = misses
	if hits+misses > 0 {
		e.layer["rescache.hit_ratio"] = hits / (hits + misses)
	}
	e.layer["rescache.store_errors"] = float64(r.reg.Counter("serve.cache.store_errors").Value())
	e.layer["serve.p50_ms"] = median(res.LatencyMs)
	e.layer["serve.p99_ms"] = p99(res.LatencyMs)
	e.layer["load.lateness_p99_ms"] = p99(res.LatenessMs)
	e.layer["obs.overhead_frac.serve"] = median(res.LatencyMs)/base - 1
}
