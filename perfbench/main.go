// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output the program produces,
// and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload engine --seed 1 --seconds 10 --trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the workload again with spans recorded around every call into a
// layer and with the program's own telemetry switched on, and reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload gets: its inputs and where it may write.
type env struct {
	root    string // repository checkout
	bin     string // directory holding the usrepro binary
	work    string // fresh scratch directory for this run
	seed    int64
	seconds time.Duration
	trace   bool
	spans   *spanLog           // nil in the untraced run
	layer   map[string]float64 // per-layer metrics (traced run)
	golden  *golden
}

// outcome is a workload's raw measurements.
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition (see timedSetup)
	wall      []float64 // wall-clock seconds, one per pass of the fixed work
	cpu       []float64 // user-mode CPU seconds of the work, one per pass
	wallGated bool      // work_s is the wall-clock time, not the CPU time
	minPasses int       // passes runs at least this many, even past the run's time
	opsMs     []float64 // latency of each unit operation
	notes     []string  // workload-specific lines for the human summary
	rssMB     float64   // peak RSS of the process that ran the work; 0 = this process
	attempted int64
	failed    int64 // failed + shed + timed out + wrong output
	problems  []string
}

// work is the per-pass time reported as work_s. It is the user-mode CPU
// time of the processes doing the work, because on a shared host the
// wall-clock time of CPU-bound work follows the other tenants' load and
// the system time follows the disk's. A workload whose passes mostly
// wait on timers reports wall-clock time instead.
func (o *outcome) work() []float64 {
	if o.wallGated {
		return o.wall
	}
	return o.cpu
}

// fail records a wrong output or failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"repro":    runRepro,
	"engine":   runEngine,
	"campaign": runCampaign,
	"serve":    runServe,
	"fleet":    runFleet,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerUnits gives each per-layer metric's unit; every traced run reports
// all of them, with 0 for layers its workload does not exercise.
var layerUnits = map[string]string{}

func init() {
	for _, n := range []string{"gatesim.ultra1_s", "gatesim.ultra2_s", "gatesim.hybrid_s",
		"exp.e18_s", "exp.e2_s", "exp.e6_s", "exp.e10_s", "exp.rest_s"} {
		layerUnits[n] = "s"
	}
	for _, n := range []string{"exp.task_p99_ms", "exp.shard_p50_ms", "exp.shard_p99_ms",
		"serve.submit_p50_ms", "serve.submit_p99_ms", "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
		"fleet.shard_p50_ms", "fleet.shard_p99_ms", "load.lateness_p99_ms", "serve.p50_ms", "serve.p99_ms"} {
		layerUnits[n] = "ms"
	}
	for _, n := range []string{"gatesim.cycles", "exp.queue_depth_max", "exp.ckpt_writes", "core.cycles",
		"core.retired", "fault.points", "serve.admit_level_max", "rescache.hits", "rescache.misses",
		"rescache.store_errors", "fleet.dispatches", "fleet.retries", "fleet.hedges", "fleet.duplicates"} {
		layerUnits[n] = "count"
	}
	for _, n := range []string{"exp.pool_busy_frac", "exp.ckpt_share", "rescache.hit_ratio",
		"fleet.compute_frac", "fail_frac"} {
		layerUnits[n] = "ratio"
	}
	layerUnits["gatesim.ns_per_cycle"] = "ns"
	layerUnits["exp.ckpt_bytes"] = "B"
	layerUnits["core.allocs_per_cycle"] = "count"
	for _, a := range engineArchs {
		layerUnits["core."+a+".ipc"] = "ratio"
		for _, n := range engineWindows {
			layerUnits[fmt.Sprintf("core.%s.n%d.ns_per_cycle", a, n)] = "ns"
		}
	}
	for _, k := range outcomeKinds {
		layerUnits["fault.outcome."+k] = "count"
	}
	for _, c := range jobClasses {
		layerUnits["serve."+c+".run_p50_ms"] = "ms"
		layerUnits["serve."+c+".p50_ms"] = "ms"
		layerUnits["serve.shed."+c] = "count"
	}
	for w := range workloads {
		layerUnits["obs.overhead_frac."+w] = "ratio"
	}
}

func main() {
	name := flag.String("workload", "", "workload: repro, engine, campaign, serve or fleet")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	bin := flag.String("bin", "", "directory holding the usrepro binary")
	printGolden := flag.Bool("print-golden", false, "print the exact counts for the recorded seeds and exit")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root, *bin, *printGolden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, root, bin string, printGolden bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return err
	}
	g, err := loadGolden(filepath.Join(root, "perfbench", "golden.json"))
	if err != nil {
		return err
	}
	wl, ok := workloads[name]
	if !ok && !printGolden {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1")
	}
	work, err := os.MkdirTemp(filepath.Join(bin, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if printGolden {
		return writeGolden(os.Stdout, g, work)
	}
	e := &env{root: root, bin: bin, work: work, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace, golden: g}
	if trace {
		e.layer = map[string]float64{}
		for n := range layerUnits {
			e.layer[n] = 0
		}
		e.spans = newSpanLog()
	}
	out, err := wl(e)
	if err != nil {
		return err
	}
	if trace {
		path := filepath.Join(bin, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := e.spans.writeChrome(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		printSelfTimes(e.spans)
	}
	return report(name, e, out)
}

// report prints the human summary and the result line, and fails the
// process when any output check failed.
func report(name string, e *env, o *outcome) error {
	rss := o.rssMB
	if rss == 0 {
		rss = selfMaxRSSMB()
	}
	failFrac := 0.0
	if o.attempted > 0 {
		failFrac = float64(o.failed) / float64(o.attempted)
	}
	metrics := map[string]metric{}
	if e.trace {
		e.layer["fail_frac"] = failFrac
		for n, v := range e.layer {
			metrics[n] = metric{v, layerUnits[n]}
		}
	} else {
		metrics["setup_s"] = metric{median(o.setup), "s"}
		metrics["work_s"] = metric{median(o.work()), "s"}
		metrics["max_rss_mb"] = metric{rss, "MiB"}
	}
	fmt.Printf("perfbench %s: seed=%d seconds=%.0f trace=%v nproc=%d GOMAXPROCS=%d\n",
		name, e.seed, e.seconds.Seconds(), e.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("  attempted=%d failed=%d fail_frac=%g (ratio) passes=%d ops=%d setups=%d\n",
		o.attempted, o.failed, failFrac, len(o.wall), len(o.opsMs), len(o.setup))
	if !e.trace {
		// The latency percentiles are printed but not gated: on a shared
		// 2-vCPU box the serve workload's percentiles vary more between
		// runs than any bound the benchmark may set (see README.md).
		fmt.Printf("  p50_ms = %.6g ms, p99_ms = %.6g ms over %d operations (not in the result line)\n",
			median(o.opsMs), p99(o.opsMs), len(o.opsMs))
		for _, t := range []struct {
			name    string
			samples []float64
		}{{"wall-clock", o.wall}, {"user CPU", o.cpu}} {
			fmt.Printf("  %s per pass: min %.6g s, median %.6g s, max %.6g s\n",
				t.name, quantile(t.samples, 0), median(t.samples), quantile(t.samples, 1))
		}
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range o.problems {
		fmt.Println("  FAIL:", p)
	}
	correct := o.failed == 0 && o.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", name, o.failed, o.attempted)
	}
	return nil
}

// printSelfTimes lists each span name's self time, largest first.
func printSelfTimes(l *spanLog) {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.3fs", n, self[n].Seconds())
	}
	fmt.Println("  self time by span:" + b.String())
}

// selfUserCPU is the user-mode CPU time this process has used so far, in
// every thread.
func selfUserCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// selfCPUTotal is the CPU time, user and system, this process has used
// so far. Unlike either part alone, the total is exact to the
// nanosecond: the kernel splits it into user and system time by
// sampling at each scheduler tick (4 ms), so only the total suits
// intervals of a few milliseconds.
func selfCPUTotal() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSSMB is this process's peak resident set in MiB.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetup runs build reps times and keeps the last result; the others
// are torn down. Every repetition's CPU time goes to o.setup, so set-up
// time is reported as a median rather than one noisy sample. It is CPU
// time, user and system, for the reason work_s is: on a shared host the
// wall-clock time of a set-up follows the other tenants' load. Over ten
// runs, the serve service's start-up took a median 3.8 ms of wall-clock
// time in the first five and 6.3 ms in the last five.
//
// Each repetition starts after a garbage collection that also returns
// the freed memory to the operating system, so that neither collecting
// what earlier work left behind nor the background scavenger returning
// it lands in the set-up's time.
func timedSetup[T any](o *outcome, reps int, build func() (T, func(), error)) (T, func(), error) {
	var v T
	var stop func()
	for i := 0; i < reps; i++ {
		if stop != nil {
			stop()
		}
		debug.FreeOSMemory()
		start := selfCPUTotal()
		var err error
		v, stop, err = build()
		if err != nil {
			return v, nil, err
		}
		o.setup = append(o.setup, (selfCPUTotal() - start).Seconds())
	}
	return v, stop, nil
}

// passes repeats one pass of the fixed work, at least once and at least
// o.minPasses times, and for as long as another pass as long as the last
// still ends within the run's time, recording each pass's wall-clock and
// CPU time.
func passes(e *env, o *outcome, pass func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t, c := time.Now(), selfUserCPU()
		if err := pass(i); err != nil {
			return err
		}
		d := time.Since(t)
		o.wall = append(o.wall, d.Seconds())
		o.cpu = append(o.cpu, (selfUserCPU() - c).Seconds())
		if time.Since(start)+d > e.seconds && i+1 >= o.minPasses {
			return nil
		}
	}
}

// tracedPasses runs pass untraced for the first half of the run and
// traced for the second, recording the passes of the traced half in o
// and the tracing overhead as obs.overhead_frac.<name>.
func tracedPasses(e *env, name string, o *outcome, pass func(i int, sp *spanLog) error) error {
	half := *e
	half.seconds = e.seconds / 2
	var plain outcome
	if err := passes(&half, &plain, func(i int) error { return pass(i, nil) }); err != nil {
		return err
	}
	if err := passes(&half, o, func(i int) error { return pass(i, e.spans) }); err != nil {
		return err
	}
	e.layer["obs.overhead_frac."+name] = median(o.work())/median(plain.work()) - 1
	return nil
}
