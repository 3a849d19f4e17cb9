package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ultrascalar/internal/core"
	"ultrascalar/internal/exp"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// The engine workload: long fault-free runs of the cycle engine
// (internal/core, on its Tomasulo wake-link forwarding path) on the three
// architectures at two window sizes. No gate-level work, no persistence.
var (
	engineArchs   = []string{"ultra1", "ultra2", "hybrid"}
	engineWindows = []int{256, 1024}
)

// enginePrograms generates the workload's programs from seed. They vary
// instruction-level parallelism (MixedILP at two dependence distances,
// Chain, Parallel), memory traffic (MemStream, PointerChase, RepeatedScan)
// and branch predictability (Branchy both ways). The seed changes the
// programs' content, not their length.
func enginePrograms(seed int64) []workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	return []workload.Workload{
		workload.MixedILP(24000, isa.NumRegs, 4, rng.Int63()),
		workload.MixedILP(24000, isa.NumRegs, 32, rng.Int63()),
		workload.Chain(12000),
		workload.Parallel(24000, isa.NumRegs),
		workload.MemStream(8000),
		workload.PointerChase(4800, rng.Int63()),
		workload.Branchy(3200, true),
		workload.Branchy(3200, false),
		workload.RepeatedScan(64, 64),
	}
}

// engineJob is one simulation: a program, a machine, and the golden
// final state from the in-order interpreter.
type engineJob struct {
	wl     workload.Workload
	arch   string
	window int
	cfg    core.Config
	want   *ref.Result
}

// engineJobs builds every (program, architecture, window) simulation.
func engineJobs(seed int64) ([]engineJob, error) {
	var jobs []engineJob
	for _, wl := range enginePrograms(seed) {
		want, err := ref.Run(wl.Prog, wl.Mem(), ref.Config{})
		if err != nil {
			return nil, fmt.Errorf("golden run of %s: %w", wl.Name, err)
		}
		for _, arch := range engineArchs {
			for _, n := range engineWindows {
				cfg, err := exp.ArchConfig(arch, n, n/4)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, engineJob{wl: wl, arch: arch, window: n, cfg: cfg, want: want})
			}
		}
	}
	return jobs, nil
}

// enginePass runs every job once. It checks each final state against
// the golden one and returns the simulated counts.
type engineTally struct {
	cycles, retired  int64
	archCyc, archRet map[string]int64
	cfgCyc           map[string]int64
	cfgNs            map[string]time.Duration
	opsMs            []float64
	wrong            []string
}

func enginePass(jobs []engineJob, sp *spanLog, pass int) (*engineTally, error) {
	t := &engineTally{archCyc: map[string]int64{}, archRet: map[string]int64{},
		cfgCyc: map[string]int64{}, cfgNs: map[string]time.Duration{}}
	for _, j := range jobs {
		key := fmt.Sprintf("core.%s.n%d", j.arch, j.window)
		s := sp.begin(-1, fmt.Sprintf("pass%d", pass), key)
		mem := j.wl.Mem()
		start := time.Now()
		res, err := core.Run(j.wl.Prog, mem, j.cfg)
		d := time.Since(start)
		sp.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", j.wl.Name, key, err)
		}
		t.opsMs = append(t.opsMs, ms(d))
		if !stateEqual(res, j.want) {
			t.wrong = append(t.wrong, fmt.Sprintf("%s on %s: final state differs from internal/ref", j.wl.Name, key))
		}
		t.cycles += res.Stats.Cycles
		t.retired += res.Stats.Retired
		t.archCyc[j.arch] += res.Stats.Cycles
		t.archRet[j.arch] += res.Stats.Retired
		t.cfgCyc[key] += res.Stats.Cycles
		t.cfgNs[key] += d
	}
	return t, nil
}

// stateEqual compares an engine run's architectural end state with the
// golden interpreter's.
func stateEqual(res *core.Result, want *ref.Result) bool {
	if res.Stats.Retired != int64(want.Executed) || len(res.Regs) != len(want.Regs) {
		return false
	}
	for r := range want.Regs {
		if res.Regs[r] != want.Regs[r] {
			return false
		}
	}
	return res.Mem.Equal(want.Mem)
}

// counts are the pass's exact simulated statistics.
func (t *engineTally) counts() map[string]any {
	c := map[string]any{"core.cycles": t.cycles, "core.retired": t.retired}
	for _, a := range engineArchs {
		c["core."+a+".ipc"] = float64(t.archRet[a]) / float64(t.archCyc[a])
	}
	return c
}

// engineCounts computes the exact counts for one seed.
func engineCounts(seed int64) (map[string]any, error) {
	jobs, err := engineJobs(seed)
	if err != nil {
		return nil, err
	}
	t, err := enginePass(jobs, nil, 0)
	if err != nil {
		return nil, err
	}
	return t.counts(), nil
}

func runEngine(e *env) (*outcome, error) {
	o := &outcome{}
	jobs, stop, err := timedSetup(o, 15, func() ([]engineJob, func(), error) {
		j, err := engineJobs(e.seed)
		return j, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer stop()
	var first map[string]any
	var all []*engineTally
	pass := func(i int, sp *spanLog) error {
		t, err := enginePass(jobs, sp, i)
		if err != nil {
			return err
		}
		o.attempted += int64(len(jobs))
		for _, w := range t.wrong {
			o.fail("%s", w)
		}
		// Simulated statistics must repeat exactly on every pass.
		if first == nil {
			first = t.counts()
			for _, d := range e.golden.check(e.seed, "engine", first) {
				o.fail("drift: %s", d)
			}
		} else if d := diffCounts(first, t.counts()); d != "" {
			o.fail("pass %d drifted from pass 0: %s", i, d)
		}
		all = append(all, t)
		return nil
	}
	if !e.trace {
		if err := passes(e, o, func(i int) error { return pass(i, nil) }); err != nil {
			return nil, err
		}
		for _, t := range all {
			o.opsMs = append(o.opsMs, t.opsMs...)
		}
		return o, nil
	}

	// Traced: allocations per simulated cycle over one pass, then the
	// overhead comparison, then the recorded seeds' counts.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pass(0, nil); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	e.layer["core.allocs_per_cycle"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(all[0].cycles)
	all = all[:0]
	if err := tracedPasses(e, "engine", o, pass); err != nil {
		return nil, err
	}
	cyc, ns := map[string]int64{}, map[string]time.Duration{}
	for _, t := range all {
		for k, v := range t.cfgCyc {
			cyc[k] += v
			ns[k] += t.cfgNs[k]
		}
	}
	for k := range cyc {
		e.layer[k+".ns_per_cycle"] = float64(ns[k].Nanoseconds()) / float64(cyc[k])
	}
	for k, v := range first {
		e.layer[k] = toFloat(v)
	}
	for _, seed := range []int64{e.golden.TuningSeed, e.golden.HeldOutSeed} {
		c, err := engineCounts(seed)
		if err != nil {
			return nil, err
		}
		for _, d := range e.golden.check(seed, "engine", c) {
			o.fail("drift: %s", d)
		}
	}
	return o, nil
}
