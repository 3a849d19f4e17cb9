package gatesim

import (
	"fmt"
	"testing"

	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/workload"
)

// TestOddGeometriesThroughGates cross-checks the gate-level machines
// against the golden interpreter where the lane packing has edges:
// windows that are not powers of two, hybrids of three or more clusters
// (one grid lane each), and gate-level memory arbitration.
func TestOddGeometriesThroughGates(t *testing.T) {
	for _, n := range []int{3, 5} {
		for _, w := range workload.Kernels() {
			t.Run(fmt.Sprintf("%s/n=%d", w.Name, n), func(t *testing.T) {
				t.Parallel()
				crossCheck(t, w, Config{Window: n})
				crossCheck2(t, w, Config{Window: n})
				crossCheckHybrid(t, w, HybridConfig{Window: n, Cluster: 1})
			})
		}
		for _, w := range []workload.Workload{workload.VecSum(10), workload.MemCopy(7), workload.LoadBurst(10, 16)} {
			t.Run(fmt.Sprintf("%s/n=%d/arbitrated", w.Name, n), func(t *testing.T) {
				for _, m := range []int{1, 2} {
					crossCheck(t, w, Config{Window: n, NumRegs: 16, MemBandwidth: m})
					crossCheck2(t, w, Config{Window: n, NumRegs: 16, MemBandwidth: m})
				}
			})
		}
	}
	for _, w := range []workload.Workload{workload.Fib(12), workload.VecSum(10), workload.GCD(1071, 462)} {
		t.Run(w.Name+"/hybrid-6x2", func(t *testing.T) {
			crossCheckHybrid(t, w, HybridConfig{Window: 6, Cluster: 2})
		})
	}
}

// TestTooManyRegisters: a register CSPP lane per register caps the
// machines at 64 registers.
func TestTooManyRegisters(t *testing.T) {
	halt := []isa.Inst{{Op: isa.OpHalt}}
	if _, err := Run(halt, memory.NewFlat(), Config{Window: 2, NumRegs: 65}); err == nil {
		t.Error("Run with 65 registers should fail")
	}
	if _, err := RunUltra2(halt, memory.NewFlat(), Config{Window: 2, NumRegs: 65}); err == nil {
		t.Error("RunUltra2 with 65 registers should fail")
	}
	if _, err := RunHybrid(halt, memory.NewFlat(), HybridConfig{Window: 2, Cluster: 1, NumRegs: 65}); err == nil {
		t.Error("RunHybrid with 65 registers should fail")
	}
}

// TestSteadyStateCyclesDoNotAllocate: once a run is set up, simulating
// more cycles allocates nothing more. A short and a long run of the same
// loop must allocate the same.
func TestSteadyStateCyclesDoNotAllocate(t *testing.T) {
	runs := map[string]func(w workload.Workload, mem *memory.Flat) (*Result, error){
		"ultra1": func(w workload.Workload, mem *memory.Flat) (*Result, error) {
			return Run(w.Prog, mem, Config{Window: 4, NumRegs: isa.NumRegs, Width: 32, MemBandwidth: 1})
		},
		"ultra2": func(w workload.Workload, mem *memory.Flat) (*Result, error) {
			return RunUltra2(w.Prog, mem, Config{Window: 4, NumRegs: isa.NumRegs, Width: 32, MemBandwidth: 1})
		},
		"hybrid": func(w workload.Workload, mem *memory.Flat) (*Result, error) {
			return RunHybrid(w.Prog, mem, HybridConfig{Window: 6, Cluster: 2, NumRegs: isa.NumRegs, Width: 32})
		},
	}
	for name, run := range runs {
		allocs := func(w workload.Workload) (float64, int64) {
			mem := w.Mem()
			var cycles int64
			a := testing.AllocsPerRun(3, func() {
				res, err := run(w, mem)
				if err != nil {
					t.Fatal(err)
				}
				cycles = res.Cycles
			})
			return a, cycles
		}
		short, shortCycles := allocs(workload.VecSum(4))
		long, longCycles := allocs(workload.VecSum(64))
		if longCycles < 4*shortCycles {
			t.Fatalf("%s: %d cycles vs %d is too small a difference to measure", name, longCycles, shortCycles)
		}
		if long > short {
			t.Errorf("%s: %.0f allocations over %d cycles, %.0f over %d: cycles allocate",
				name, long, longCycles, short, shortCycles)
		}
	}
}

// TestConcurrentRunsShareNetlists runs the three machines from several
// goroutines at once. They share the cached compiled programs, which
// must therefore be read-only (the race detector checks this).
func TestConcurrentRunsShareNetlists(t *testing.T) {
	w := workload.Fib(9)
	cfg := Config{Window: 7, NumRegs: isa.NumRegs, Width: 32, MemBandwidth: 2}
	hcfg := HybridConfig{Window: 7, Cluster: 1, NumRegs: isa.NumRegs, Width: 32}
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		go func() {
			_, err := Run(w.Prog, w.Mem(), cfg)
			errs <- err
		}()
		go func() {
			_, err := RunUltra2(w.Prog, w.Mem(), cfg)
			errs <- err
		}()
		go func() {
			_, err := RunHybrid(w.Prog, w.Mem(), hcfg)
			errs <- err
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
