package core

import (
	"errors"
	"testing"

	"ultrascalar/internal/asm"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
	"ultrascalar/internal/ref"
	"ultrascalar/internal/workload"
)

// crossCheck runs a workload on the engine and on the golden interpreter
// and requires identical architectural state.
func crossCheck(t *testing.T, w workload.Workload, cfg Config) *Result {
	t.Helper()
	want, err := ref.Run(w.Prog, w.Mem(), ref.Config{NumRegs: cfg.NumRegs})
	if err != nil {
		t.Fatalf("%s: golden: %v", w.Name, err)
	}
	got, err := Run(w.Prog, w.Mem(), cfg)
	if err != nil {
		t.Fatalf("%s: engine: %v", w.Name, err)
	}
	for r := range want.Regs {
		if got.Regs[r] != want.Regs[r] {
			t.Errorf("%s: r%d = %d, golden %d", w.Name, r, got.Regs[r], want.Regs[r])
		}
	}
	if !got.Mem.Equal(want.Mem) {
		t.Errorf("%s: memory mismatch: %s", w.Name, got.Mem.Diff(want.Mem))
	}
	if got.Stats.Retired != int64(want.Executed) {
		t.Errorf("%s: retired %d, golden executed %d", w.Name, got.Stats.Retired, want.Executed)
	}
	return got
}

// TestFigure3Timing reproduces the paper's Figure 3 exactly: the
// eight-instruction sequence in an 8-station window, with division taking
// 10 cycles, multiplication 3 and addition 1, issues with precisely the
// timing the paper draws.
func TestFigure3Timing(t *testing.T) {
	w := workload.Figure3Sequence()
	init := make([]isa.Word, isa.NumRegs)
	// Figure 1's snapshot values: R0=10 initially; divide operands chosen
	// so R3=20; R5=50, R6=8 so that R0 becomes 42.
	init[0], init[1], init[2] = 10, 100, 5
	init[4], init[5], init[6], init[7] = 3, 50, 8, 2
	res, err := Run(w.Prog, memory.NewFlat(), Config{
		Window: 8, Granularity: 1, InitRegs: init, KeepTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected [Issue, Done) intervals, in program order (paper Figure 3):
	//   R3=R1/R2   cycles 0-10   (div, 10 cycles)
	//   R0=R0+R3   cycle  10-11
	//   R1=R5+R6   cycle  0-1
	//   R1=R0+R1   cycle  11-12  (the last instruction; ends at 12)
	//   R2=R5*R6   cycles 0-3    (mul, 3 cycles)
	//   R2=R2+R4   cycle  3-4
	//   R0=R5-R6   cycle  0-1
	//   R4=R0+R7   cycle  1-2
	want := [][2]int64{{0, 10}, {10, 11}, {0, 1}, {11, 12}, {0, 3}, {3, 4}, {0, 1}, {1, 2}}
	if len(res.Timeline) < 8 {
		t.Fatalf("timeline has %d records", len(res.Timeline))
	}
	for i, iv := range want {
		rec := res.Timeline[i]
		if rec.Issue != iv[0] || rec.Done != iv[1] {
			t.Errorf("inst %d (%s): [%d,%d), want [%d,%d)",
				i, rec.Inst, rec.Issue, rec.Done, iv[0], iv[1])
		}
	}
	// Architectural outcome matches the Figure 1 snapshot: R0 ends at 42.
	if res.Regs[0] != 42 {
		t.Errorf("R0 = %d, want 42", res.Regs[0])
	}
	if res.Regs[3] != 20 {
		t.Errorf("R3 = %d, want 20", res.Regs[3])
	}
}

// TestFigure3IdenticalAcrossGranularities verifies the paper's claim that
// all three processors extract identical ILP on a window-resident
// sequence: with the whole sequence in flight, Ultrascalar I (g=1),
// hybrid (g=4) and Ultrascalar II (g=8) produce the same timing diagram.
func TestFigure3IdenticalAcrossGranularities(t *testing.T) {
	w := workload.Figure3Sequence()
	var base []InstRecord
	for _, g := range []int{1, 4, 8} {
		res, err := Run(w.Prog, memory.NewFlat(), Config{
			Window: 8, Granularity: g, KeepTimeline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		recs := res.Timeline[:8]
		if base == nil {
			base = recs
			continue
		}
		for i := range recs {
			if recs[i].Issue != base[i].Issue || recs[i].Done != base[i].Done {
				t.Errorf("g=%d inst %d: [%d,%d) != g=1 [%d,%d)",
					g, i, recs[i].Issue, recs[i].Done, base[i].Issue, base[i].Done)
			}
		}
	}
}

func TestKernelsMatchGoldenAllGranularities(t *testing.T) {
	for _, w := range workload.Kernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, cfg := range []Config{
				{Window: 8, Granularity: 1},
				{Window: 8, Granularity: 4},
				{Window: 8, Granularity: 8},
				{Window: 32, Granularity: 1},
				{Window: 32, Granularity: 8},
				{Window: 1, Granularity: 1},
			} {
				crossCheck(t, w, cfg)
			}
		})
	}
}

func TestExtendedKernelsMatchGolden(t *testing.T) {
	for _, w := range workload.ExtendedKernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			crossCheck(t, w, Config{Window: 16, Granularity: 4})
			crossCheck(t, w, Config{Window: 16, Granularity: 4, MemRenaming: true})
		})
	}
}

func TestSyntheticMatchGolden(t *testing.T) {
	ws := []workload.Workload{
		workload.Chain(60),
		workload.Parallel(60, 16),
		workload.MixedILP(150, 16, 6, 1),
		workload.MixedILP(150, 16, 32, 2),
		workload.MemStream(25),
		workload.LoadBurst(40, 32),
		workload.Branchy(40, true),
		workload.Branchy(40, false),
	}
	for _, w := range ws {
		for _, g := range []int{1, 4, 16} {
			crossCheck(t, w, Config{Window: 16, Granularity: g})
		}
	}
}

// TestChainVsParallelIPC: a dependence chain runs at IPC 1 regardless of
// window; independent instructions run at IPC near the steady-state bound.
func TestChainVsParallelIPC(t *testing.T) {
	chain := crossCheck(t, workload.Chain(200), Config{Window: 16, Granularity: 1})
	if ipc := chain.Stats.IPC(); ipc > 1.1 {
		t.Errorf("chain IPC %.2f should be about 1", ipc)
	}
	par := crossCheck(t, workload.Parallel(256, 32), Config{Window: 16, Granularity: 1})
	if ipc := par.Stats.IPC(); ipc < 4 {
		t.Errorf("parallel IPC %.2f should be high with a 16-wide window", ipc)
	}
	if par.Stats.IPC() < 2*chain.Stats.IPC() {
		t.Errorf("parallel (%.2f) should beat chain (%.2f)", par.Stats.IPC(), chain.Stats.IPC())
	}
}

// TestBatchRefillPenalty reproduces the paper's Section 4 observation:
// the Ultrascalar II "is less efficient than the Ultrascalar I because its
// datapath does not wrap around. As a result, stations idle waiting for
// everyone to finish before refilling."
func TestBatchRefillPenalty(t *testing.T) {
	w := workload.DotProduct(50)
	u1, err := Run(w.Prog, w.Mem(), Config{Window: 16, Granularity: 1})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := Run(w.Prog, w.Mem(), Config{Window: 16, Granularity: 16})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Run(w.Prog, w.Mem(), Config{Window: 16, Granularity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(u1.Stats.Cycles < hy.Stats.Cycles && hy.Stats.Cycles < u2.Stats.Cycles) {
		t.Errorf("cycle counts should order UltraI (%d) < hybrid (%d) < UltraII (%d)",
			u1.Stats.Cycles, hy.Stats.Cycles, u2.Stats.Cycles)
	}
}

func TestMispredictRecovery(t *testing.T) {
	// A data-dependent unpredictable branch pattern: results still match
	// the golden model, and mispredictions are recorded.
	res := crossCheck(t, workload.Branchy(100, false), Config{Window: 16, Granularity: 1})
	if res.Stats.Mispredicts == 0 {
		t.Error("expected at least one misprediction on the random pattern")
	}
	if res.Stats.Squashed == 0 {
		t.Error("expected squashed wrong-path instructions")
	}
	if res.Stats.Fetched <= res.Stats.Retired {
		t.Error("fetched should exceed retired when squashing")
	}
}

func TestJalrThroughBTB(t *testing.T) {
	// Call the same function twice: first call stalls on the cold BTB,
	// second call hits.
	w := workload.Workload{Name: "calls", Prog: asm.MustAssemble(`
		li r1, 1
		jal r31, fn
		li r1, 2
		jal r31, fn
		halt
	fn:
		add r2, r2, r1
		jalr r0, r31, 0
	`).Insts}
	res := crossCheck(t, w, Config{Window: 8, Granularity: 1})
	if res.Regs[2] != 3 {
		t.Errorf("r2 = %d, want 3", res.Regs[2])
	}
}

func TestMemorySystemIntegration(t *testing.T) {
	// Run the memory-heavy workloads through the fat-tree model with
	// narrow bandwidth; results must still match the golden model.
	for _, m := range []memory.MFunc{memory.MConst(1), memory.MPow(1, 0.5), memory.MLinear()} {
		w := workload.MemStream(30)
		sys := memory.NewSystem(memory.DefaultConfig(16, m))
		res := crossCheck(t, w, Config{Window: 16, Granularity: 1, MemSystem: sys})
		if res.Stats.Loads == 0 || res.Stats.Stores == 0 {
			t.Error("expected memory traffic")
		}
	}
}

// TestButterflyIntegration: the engine runs correctly over the butterfly
// network, and butterfly blocking costs cycles versus an unconstrained
// run.
func TestButterflyIntegration(t *testing.T) {
	for _, w := range []workload.Workload{workload.MemStream(30), workload.VecSum(40)} {
		bf := memory.NewButterfly(16, 4, 1, 2)
		res := crossCheck(t, w, Config{Window: 16, Granularity: 1, MemSystem: bf})
		free, err := Run(w.Prog, w.Mem(), Config{Window: 16, Granularity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cycles < free.Stats.Cycles {
			t.Errorf("%s: butterfly (%d cycles) cannot beat unconstrained (%d)",
				w.Name, res.Stats.Cycles, free.Stats.Cycles)
		}
	}
}

// TestBandwidthThrottling: with M(n)=1 a load burst takes proportionally
// longer than with full bandwidth.
func TestBandwidthThrottling(t *testing.T) {
	w := workload.LoadBurst(128, 32)
	run := func(m memory.MFunc) int64 {
		// HopLatency 0 so bandwidth, not latency, is the limiter.
		cfg := memory.DefaultConfig(16, m)
		cfg.HopLatency = 0
		sys := memory.NewSystem(cfg)
		res, err := Run(w.Prog, w.Mem(), Config{Window: 16, Granularity: 1, MemSystem: sys})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	narrow := run(memory.MConst(1))
	wide := run(memory.MLinear())
	if narrow < 2*wide {
		t.Errorf("M=1 (%d cycles) should be much slower than M=n (%d cycles)", narrow, wide)
	}
}

// TestStoreLoadSerialization: a store followed by a dependent load through
// memory must forward through memory correctly under all granularities.
func TestStoreLoadSerialization(t *testing.T) {
	w := workload.Workload{Name: "st-ld", Prog: asm.MustAssemble(`
		li r1, 500
		li r2, 77
		sw r2, (r1)
		lw r3, (r1)
		addi r3, r3, 1
		sw r3, 1(r1)
		lw r4, 1(r1)
		halt
	`).Insts}
	for _, g := range []int{1, 2, 8} {
		res := crossCheck(t, w, Config{Window: 8, Granularity: g})
		if res.Regs[4] != 78 {
			t.Errorf("g=%d: r4 = %d, want 78", g, res.Regs[4])
		}
	}
}

func TestWindowOne(t *testing.T) {
	// A 1-station window degenerates to sequential execution.
	res := crossCheck(t, workload.Fib(10), Config{Window: 1, Granularity: 1})
	if ipc := res.Stats.IPC(); ipc > 1.01 {
		t.Errorf("window-1 IPC %.3f should be <= 1", ipc)
	}
}

func TestErrors(t *testing.T) {
	halt := []isa.Inst{{Op: isa.OpHalt}}
	if _, err := Run(halt, memory.NewFlat(), Config{Window: 0}); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := Run(halt, memory.NewFlat(), Config{Window: 8, Granularity: 3}); err == nil {
		t.Error("granularity not dividing window should fail")
	}
	if _, err := Run(halt, memory.NewFlat(), Config{Window: 8, NumRegs: 99}); err == nil {
		t.Error("bad register count should fail")
	}
	if _, err := Run(halt, memory.NewFlat(), Config{Window: 8, InitRegs: []isa.Word{1}}); err == nil {
		t.Error("short InitRegs should fail")
	}
	// Program that never halts.
	loop := asm.MustAssemble("loop: j loop").Insts
	if _, err := Run(loop, memory.NewFlat(), Config{Window: 4, MaxCycles: 500}); !errors.Is(err, ErrNoHalt) {
		t.Errorf("want ErrNoHalt, got %v", err)
	}
	// Program that falls off the end.
	off := asm.MustAssemble("nop").Insts
	if _, err := Run(off, memory.NewFlat(), Config{Window: 4}); !errors.Is(err, ErrPCOutOfRange) {
		t.Errorf("want ErrPCOutOfRange, got %v", err)
	}
	// Register out of machine range.
	badRead := []isa.Inst{{Op: isa.OpAdd, Rd: 1, Rs1: 9, Rs2: 0}, {Op: isa.OpHalt}}
	if _, err := Run(badRead, memory.NewFlat(), Config{Window: 4, NumRegs: 8}); err == nil {
		t.Error("register read out of range should fail")
	}
	badWrite := []isa.Inst{{Op: isa.OpLi, Rd: 9}, {Op: isa.OpHalt}}
	if _, err := Run(badWrite, memory.NewFlat(), Config{Window: 4, NumRegs: 8}); err == nil {
		t.Error("register write out of range should fail")
	}
}

// TestOperandLocality exercises the Section 7 statistic: on a serial
// chain, every operand comes from the immediately preceding station.
func TestOperandLocality(t *testing.T) {
	res, err := Run(workload.Chain(100).Prog, memory.NewFlat(), Config{Window: 16, Granularity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OperandFromStation[1] < 90 {
		t.Errorf("chain should source operands at distance 1: %v (committed %d)",
			res.Stats.OperandFromStation, res.Stats.OperandFromCommitted)
	}
}

func TestDeterminism(t *testing.T) {
	w := workload.MixedILP(300, 16, 8, 3)
	cfg := Config{Window: 32, Granularity: 4}
	a, err := Run(w.Prog, w.Mem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w.Prog, w.Mem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Retired != b.Stats.Retired {
		t.Errorf("runs differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestStatsSanity(t *testing.T) {
	res := crossCheck(t, workload.Fib(15), Config{Window: 8, Granularity: 1})
	s := res.Stats
	if s.Cycles <= 0 || s.Retired <= 0 || s.Fetched < s.Retired {
		t.Errorf("implausible stats %+v", s)
	}
	if s.IPC() <= 0 || s.IPC() > 8 {
		t.Errorf("IPC %.2f out of range", s.IPC())
	}
	if s.StationBusy <= 0 {
		t.Error("station busy should accumulate")
	}
	if (Stats{}).IPC() != 0 || (Stats{}).MeanOccupancy() != 0 {
		t.Error("empty stats should report zeros")
	}
	// Occupancy histogram: right length, sums to cycles, consistent with
	// StationBusy.
	if len(s.Occupancy) != 9 {
		t.Fatalf("occupancy length %d, want 9", len(s.Occupancy))
	}
	var cyc, busy int64
	for k, c := range s.Occupancy {
		cyc += c
		busy += int64(k) * c
	}
	if cyc != s.Cycles {
		t.Errorf("occupancy sums to %d cycles, want %d", cyc, s.Cycles)
	}
	if busy != s.StationBusy {
		t.Errorf("occupancy-weighted busy %d, want %d", busy, s.StationBusy)
	}
	if mo := s.MeanOccupancy(); mo <= 0 || mo > 8 {
		t.Errorf("mean occupancy %.2f out of range", mo)
	}
}

// TestResultOutlivesArenaReuse: runs recycle their station arenas, so a
// Result must own its registers and occupancy histogram — a later run
// on the same window must not rewrite an earlier run's Result.
func TestResultOutlivesArenaReuse(t *testing.T) {
	kernels := workload.Kernels()
	cfg := Config{Window: 16}
	first, err := Run(kernels[0].Prog, kernels[0].Mem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	regs := append([]isa.Word(nil), first.Regs...)
	occ := append([]int64(nil), first.Stats.Occupancy...)
	for _, w := range kernels[1:] {
		if _, err := Run(w.Prog, w.Mem(), cfg); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	for r := range regs {
		if first.Regs[r] != regs[r] {
			t.Fatalf("r%d of an earlier run changed from %d to %d after later runs", r, regs[r], first.Regs[r])
		}
	}
	for k := range occ {
		if first.Stats.Occupancy[k] != occ[k] {
			t.Fatalf("Occupancy[%d] of an earlier run changed from %d to %d after later runs", k, occ[k], first.Stats.Occupancy[k])
		}
	}
}
