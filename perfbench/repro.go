package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ultrascalar/internal/exp"
	"ultrascalar/internal/gatesim"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/obs"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/vlsi"
	"ultrascalar/internal/workload"
)

// The repro workload: the whole paper, E1-E20, by usrepro at its default
// -nmax 4096, in a fresh process per pass so every pass pays the cold
// model memo as a user does. Its report must match
// docs/reproduction-report.txt byte for byte up to the timing line.
//
// usrepro runs with GOMAXPROCS=1, so its sweeps run serially. work_s is
// the child's CPU time, which parallel sweeps do not shorten; they only
// add scheduling overhead and make the heap's peak depend on how the
// two workers interleave. Over four runs each, usrepro's peak RSS was
// 42-49 MiB at GOMAXPROCS=1 and 56-73 MiB at 2 (the default on a 2-vCPU
// host).
const reproProcs = 1

const timingLine = "\nreproduced all experiments in "

// usrepro returns the command for one usrepro run in the run's scratch
// directory.
func usrepro(e *env, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, "usrepro"), args...)
	cmd.Dir = e.work
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", reproProcs))
	return cmd
}

// reproReference is the committed report without its timing line.
func reproReference(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "docs", "reproduction-report.txt"))
	if err != nil {
		return "", err
	}
	body, _, ok := strings.Cut(string(data), timingLine)
	if !ok {
		return "", fmt.Errorf("reproduction-report.txt has no timing line")
	}
	return body, nil
}

// reproPass runs usrepro once. It returns the run's wall-clock time,
// the child's user-mode CPU time, its peak RSS in MiB, and whether the
// report matched.
func reproPass(e *env, want string) (wall, cpu time.Duration, rssMB float64, match bool, err error) {
	cmd := usrepro(e)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, 0, 0, false, fmt.Errorf("usrepro: %w", err)
	}
	wall = time.Since(start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	body, _, ok := strings.Cut(out.String(), timingLine)
	return wall, cmd.ProcessState.UserTime(), rssMB, ok && body == want, nil
}

// startupCPU runs usrepro -h, which exits as soon as it has parsed its
// flags, and returns the child's CPU time, user and system: the cost of
// the program's start-up, from exec through package initialisation.
func startupCPU(e *env) (time.Duration, error) {
	cmd := usrepro(e, "-h") // the usage text goes to the null device
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("usrepro -h: %w", err)
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
}

func runRepro(e *env) (*outcome, error) {
	// A pass takes about 5 s, so a 15 s run makes two or three. Three
	// make the medians robust to one pass whose heap peaked high.
	o := &outcome{minPasses: 3}
	want, err := reproReference(e.root)
	if err != nil {
		return nil, err
	}
	// Set-up is usrepro's own start-up, about a millisecond of CPU time,
	// so it is measured many times.
	for i := 0; i < 21; i++ {
		d, err := startupCPU(e)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, d.Seconds())
	}
	var rss, cpu []float64
	pass := func(i int) error {
		wall, c, mb, match, err := reproPass(e, want)
		if err != nil {
			return err
		}
		o.attempted++
		if !match {
			o.fail("pass %d: usrepro report differs from docs/reproduction-report.txt", i)
		}
		o.opsMs = append(o.opsMs, ms(wall))
		rss = append(rss, mb)
		cpu = append(cpu, c.Seconds())
		return nil
	}
	if !e.trace {
		if err := passes(e, o, pass); err != nil {
			return nil, err
		}
		o.cpu = cpu // the child's, not this process's
		o.rssMB = median(rss)
		return o, nil
	}

	// Traced: one untraced usrepro pass as the overhead baseline, then the
	// same sections in this process with a span per section, then the
	// gate-level simulators alone over E18's kernel suite.
	if err := pass(0); err != nil {
		return nil, err
	}
	base := o.opsMs[0] / 1000
	reg := obs.NewRegistry()
	exp.SetPoolMetrics(reg)
	procs := runtime.GOMAXPROCS(reproProcs) // as the child runs
	start := time.Now()
	got, err := reproInProcess(e.spans)
	total := time.Since(start).Seconds()
	runtime.GOMAXPROCS(procs)
	exp.SetPoolMetrics(nil)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if body, _, ok := strings.Cut(got, timingLine); !ok || body != want {
		o.fail("in-process sections differ from docs/reproduction-report.txt")
	}
	e.layer["obs.overhead_frac.repro"] = total/base - 1
	rest := total
	for _, id := range []string{"E18", "E2", "E6", "E10"} {
		s := e.spans.total("exp." + id).Seconds()
		e.layer["exp."+strings.ToLower(id)+"_s"] = s
		rest -= s
	}
	e.layer["exp.rest_s"] = rest
	poolLayer(e, reg, []float64{total})
	if err := gatesimLayer(e, o); err != nil {
		return nil, err
	}
	return o, nil
}

// reproInProcess renders the report as usrepro does, one span per
// section, so each section's time is visible.
func reproInProcess(sp *spanLog) (string, error) {
	t := vlsi.Tech035()
	const nMax = 4096
	var b strings.Builder
	b.WriteString("Reproduction of: A Comparison of Scalable Superscalar Processors\n")
	b.WriteString("(Kuszmaul, Henry, Loh — SPAA 1999)\n")
	ok := func(s string) (string, error) { return s, nil }
	sections := []struct {
		id, title string
		run       []func() (string, error)
	}{
		{"E1", "Figure 3 timing diagram", []func() (string, error){exp.Figure3Report}},
		{"E2", "Figure 11 complexity table", []func() (string, error){func() (string, error) { return exp.Figure11Report(32, 32, 64, nMax, t) }}},
		{"E3", "Figure 12 empirical layouts", []func() (string, error){func() (string, error) { return exp.Figure12Report(t) }}},
		{"E4", "X(n) recurrence cases", []func() (string, error){func() (string, error) { return exp.UltraIRecurrenceReport(32, 32, 64, nMax, t) }}},
		{"E5", "Ultrascalar II implementations", []func() (string, error){func() (string, error) { return exp.Ultra2ScalingReport(32, 32, 64, 1024, t) }}},
		{"E6", "optimal cluster size", []func() (string, error){func() (string, error) { return exp.ClusterSweepReport(4096, 32, t) }}},
		{"E7", "three-dimensional packaging", []func() (string, error){func() (string, error) { return ok(exp.ThreeDReport(32, []int{256, 1024, 4096})) }}},
		{"E8", "IPC of the three processors", []func() (string, error){func() (string, error) { return exp.IPCReport(16, 4) }}},
		{"E9", "operand locality", []func() (string, error){func() (string, error) { return exp.LocalityReport(64) }}},
		{"E10", "netlist depths", []func() (string, error){func() (string, error) { return ok(exp.CircuitDepthsReport(8, 8, 128)) }}},
		{"E11", "end-to-end runtime", []func() (string, error){
			func() (string, error) { return exp.EndToEndReport(32, 32, []int{64, 256, 1024}, t) },
			func() (string, error) { return exp.CrossoverReport(32, 32, []int{64, 256, 1024, 4096}, t) }}},
		{"E12", "shared ALUs", []func() (string, error){func() (string, error) { return exp.SharedALUsReport(128) }}},
		{"E13", "self-timed forwarding", []func() (string, error){func() (string, error) { return exp.SelfTimedReport(32) }}},
		{"E14", "memory renaming", []func() (string, error){func() (string, error) { return exp.MemRenamingReport(16) }}},
		{"E15", "fetch mechanisms", []func() (string, error){func() (string, error) { return exp.FetchModelsReport(64) }}},
		{"E16", "the large-L regime", []func() (string, error){func() (string, error) { return exp.LargeLReport(t) }}},
		{"E17", "distributed cluster caches", []func() (string, error){func() (string, error) { return exp.ClusterCachesReport(16, 4) }}},
		{"E18", "gate-level validation", []func() (string, error){func() (string, error) { return exp.GateLevelReport(4) }}},
		{"E19", "technology scaling", []func() (string, error){exp.TechScalingReport}},
		{"E20", "return-address stack ablation", []func() (string, error){func() (string, error) { return exp.ReturnStackReport(32) }}},
	}
	for _, s := range sections {
		fmt.Fprintf(&b, "\n================ %s — %s ================\n\n", s.id, s.title)
		sid := sp.begin(-1, "repro", "exp."+s.id)
		for _, f := range s.run {
			rep, err := f()
			if err != nil {
				return "", fmt.Errorf("%s: %w", s.id, err)
			}
			b.WriteString(rep)
		}
		sp.end(sid)
	}
	b.WriteString(timingLine + "0s\n")
	return b.String(), nil
}

// gatesimLayer times the three gate-level simulators over E18's kernel
// suite at window 4, checks each end state against internal/ref, and
// reports their host time, total simulated cycles and ns per cycle.
func gatesimLayer(e *env, o *outcome) error {
	const window = 4
	cfg := gatesim.Config{Window: window, NumRegs: isa.NumRegs, Width: 32}
	hcfg := gatesim.HybridConfig{Window: window, Cluster: window / 2, NumRegs: isa.NumRegs, Width: 32}
	sims := []struct {
		name string
		run  func(w workload.Workload) (*gatesim.Result, error)
	}{
		{"ultra1", func(w workload.Workload) (*gatesim.Result, error) { return gatesim.Run(w.Prog, w.Mem(), cfg) }},
		{"ultra2", func(w workload.Workload) (*gatesim.Result, error) { return gatesim.RunUltra2(w.Prog, w.Mem(), cfg) }},
		{"hybrid", func(w workload.Workload) (*gatesim.Result, error) { return gatesim.RunHybrid(w.Prog, w.Mem(), hcfg) }},
	}
	var cycles int64
	var total time.Duration
	for _, s := range sims {
		var d time.Duration
		for _, w := range workload.Kernels() {
			want, err := ref.Run(w.Prog, w.Mem(), ref.Config{})
			if err != nil {
				return err
			}
			id := e.spans.begin(-1, "gatesim", "gatesim."+s.name)
			start := time.Now()
			res, err := s.run(w)
			d += time.Since(start)
			e.spans.end(id)
			if err != nil {
				return fmt.Errorf("gatesim %s on %s: %w", s.name, w.Name, err)
			}
			o.attempted++
			match := res.Mem.Equal(want.Mem)
			for r := range want.Regs {
				match = match && res.Regs[r] == want.Regs[r]
			}
			if !match {
				o.fail("gatesim %s on %s: end state differs from internal/ref", s.name, w.Name)
			}
			cycles += res.Cycles
		}
		e.layer["gatesim."+s.name+"_s"] = d.Seconds()
		total += d
	}
	e.layer["gatesim.cycles"] = float64(cycles)
	e.layer["gatesim.ns_per_cycle"] = float64(total.Nanoseconds()) / float64(cycles)
	if cycles != e.golden.GatesimCycles {
		o.fail("drift: gatesim.cycles = %d, recorded %d", cycles, e.golden.GatesimCycles)
	}
	return nil
}

// gatesimCycles is gatesim.cycles, for recording golden.json.
func gatesimCycles() (int64, error) {
	e := &env{layer: map[string]float64{}, golden: &golden{}}
	if err := gatesimLayer(e, &outcome{}); err != nil {
		return 0, err
	}
	return int64(e.layer["gatesim.cycles"]), nil
}
