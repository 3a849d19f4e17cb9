// Package gatesim is a second, independent implementation of the
// Ultrascalar I: a simulator whose register forwarding and sequencing are
// computed every clock cycle by evaluating the actual gate-level netlists
// from internal/circuit — the CSPP register trees of Figure 4 and the
// 1-bit sequencing CSPP of Figure 5 — rather than by the functional
// shortcuts of internal/core. Execution stations remain behavioural cells
// (decode + ALU), exactly as in the paper's own Magic layouts, where the
// CSPP datapath is the novel fabric and the ALU a standard block.
//
// gatesim exists as an end-to-end validation artifact: programs run
// through real gates must produce the same architectural results as the
// golden interpreter, and the same cycle counts as the core engine. It is
// restricted to the Ultrascalar I feature set the datapath figures show:
// straight-line and branching integer code without the core engine's
// optional extensions, with loads/stores against fixed-latency memory.
package gatesim

import (
	"errors"
	"fmt"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// ErrNoHalt is returned when the cycle limit is exhausted.
var ErrNoHalt = errors.New("gatesim: cycle limit exceeded without halt")

// Config sizes the gate-level processor.
type Config struct {
	Window    int // execution stations n (the ring size)
	NumRegs   int // logical registers L
	Width     int // datapath bits W (values are truncated to Width bits)
	Lat       isa.Latencies
	MaxCycles int64
	// MemBandwidth, when positive, arbitrates each cycle's memory
	// accesses through the gate-level fat-tree arbiter netlist
	// (circuit.FatTreeArbiter) with per-level capacities min(2^h, M) —
	// the "M" nodes of the paper's Figure 6, in gates. 0 disables
	// arbitration (unlimited bandwidth).
	MemBandwidth int
}

// Result is the outcome of a gate-level run.
type Result struct {
	Regs    []isa.Word
	Mem     *memory.Flat
	Cycles  int64
	Retired int64
}

// datapath holds the compiled Figure 4 and Figure 5 netlists with their
// evaluation buffers.
type datapath struct {
	n int
	// regs is the Figure 4 register CSPP, one lane per logical register:
	// hardware replicates the tree L times, one evaluation drives them all.
	regs *regCSPP
	// seq is the Figure 5 sequencing CSPP: inputs per station (segment,
	// condition); outputs per station (all earlier stations met it). Lane
	// 0 carries the stores-done scan, lane 1 the memory-ops-done scan.
	seq *netEval
}

func newDatapath(n, w int) *datapath {
	p, _ := compiled(netKey{net: "figure5", n: n}, func() (*circuit.Circuit, struct{}) {
		return circuit.Figure5CSPP(n, true), struct{}{}
	})
	return &datapath{n: n, regs: newRegCSPP(n, w), seq: newNetEval(p)}
}

// allEarlier evaluates the Figure 5 netlist for both sequencing scans:
// stores[p] (mem[p]) reports whether every station from the oldest up to
// (excluding) p met storeMet (memMet). The oldest station's own outputs
// are forced true (it has no earlier stations), as in
// internal/cspp.AllEarlierTrue.
func (d *datapath) allEarlier(storeMet, memMet []bool, oldest int, stores, mem []bool) {
	in := d.seq.in
	for i := 0; i < d.n; i++ {
		in[2*i], in[2*i+1] = 0, 0
		if i == oldest {
			in[2*i] = 3
		}
		if storeMet[i] {
			in[2*i+1] |= 1
		}
		if memMet[i] {
			in[2*i+1] |= 2
		}
	}
	d.seq.eval()
	for i, w := range d.seq.out {
		stores[i], mem[i] = w&1 == 1, w&2 == 2
	}
	stores[oldest], mem[oldest] = true, true
}

// station is one execution station of the ring.
type station struct {
	valid bool
	inst  isa.Inst
	pc    int
	seq   int64

	// Latched incoming register file (updated every cycle unless oldest).
	regs  []isa.Word
	ready []bool

	started   bool
	remaining int
	done      bool
	result    isa.Word
	resolved  bool
	nextPC    int
	memDone   bool
}

// Run executes prog on the gate-level Ultrascalar I. Branches stall fetch
// until resolved (the datapath figures do not include a predictor; fetch
// follows the architectural path), so cycle counts are comparable to a
// core engine configured without speculation benefits, while
// architectural results must equal the golden interpreter exactly.
func Run(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("gatesim: window must be >= 1")
	}
	if cfg.NumRegs == 0 {
		cfg.NumRegs = 8
	}
	if cfg.Width == 0 {
		cfg.Width = 8
	}
	if cfg.Lat == (isa.Latencies{}) {
		cfg.Lat = isa.DefaultLatencies()
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 20
	}
	n, l, w := cfg.Window, cfg.NumRegs, cfg.Width
	mask := isa.Word(1)<<uint(w) - 1
	if l > 64 {
		return nil, fmt.Errorf("gatesim: %d registers, at most 64", l)
	}
	d := newDatapath(n, w)
	var arb *memArbiter
	if cfg.MemBandwidth > 0 {
		arb = newMemArbiter(n, cfg.MemBandwidth)
	}

	ring := make([]*station, n)
	for i := range ring {
		ring[i] = &station{regs: make([]isa.Word, l), ready: make([]bool, l)}
	}
	commit := make([]isa.Word, l)
	oldestPos := 0
	count := 0
	fetchPC := 0
	fetchStalled := false
	var nextSeq, retired int64

	posOf := func(k int) int { return (oldestPos + k) % n } // k-th oldest

	fill := func() error {
		for count < n && !fetchStalled {
			if fetchPC < 0 || fetchPC >= len(prog) {
				if count == 0 {
					return fmt.Errorf("gatesim: fetch ran out of program at pc=%d", fetchPC)
				}
				return nil
			}
			in := prog[fetchPC]
			if err := checkRegs(in, l); err != nil {
				return err
			}
			s := ring[posOf(count)]
			*s = station{valid: true, inst: in, pc: fetchPC, seq: nextSeq,
				regs: s.regs, ready: s.ready}
			nextSeq++
			count++
			if in.ChangesFlow() || in.IsHalt() {
				// No predictor in the datapath figures: stall fetch until
				// the transfer resolves.
				fetchStalled = true
				return nil
			}
			fetchPC++
		}
		return nil
	}
	if err := fill(); err != nil {
		return nil, err
	}

	// Per-cycle reusable buffers, indexed by ring position.
	storeMet := make([]bool, n)
	memMet := make([]bool, n)
	storesDone := make([]bool, n)
	memOpsDone := make([]bool, n)
	reqs := make([]bool, n)
	ages := make([]int, n)
	memGrant := make([]bool, n)

	// insert gives station p's inserted register r: the oldest station
	// marks every register modified and inserts the committed register
	// file, except for the register its own instruction writes, where it
	// inserts its result ("the station inserts the result into the
	// outgoing register datapath. The rest of the outgoing registers are
	// set from the register file"). Other stations insert their result
	// into the register they write.
	insert := func(p, r int) (bool, isa.Word, bool) {
		s := ring[p]
		if dst, ok := s.inst.Writes(); s.valid && ok && int(dst) == r {
			return true, s.result & mask, s.done
		}
		if p == oldestPos {
			return true, commit[r] & mask, true
		}
		return false, 0, false
	}
	// latch: every valid station other than the oldest latches its
	// incoming values.
	latch := func(p int) ([]isa.Word, []bool) {
		if p == oldestPos || !ring[p].valid {
			return nil, nil
		}
		return ring[p].regs, ring[p].ready
	}

	for cycle := int64(0); cycle < cfg.MaxCycles; cycle++ {
		// Phase 1: drive the register datapath, the CSPP tree of every
		// register at once, and latch incoming values into every
		// non-oldest station's register file (paper: "Each station, other
		// than the oldest, latches all of its incoming values"). The
		// oldest station's file is the committed state.
		d.regs.forward(l, insert, latch)
		old := ring[oldestPos]
		for r := range commit {
			old.regs[r], old.ready[r] = commit[r]&mask, true
		}

		// Phase 2: sequencing CSPPs (Figure 5 instances): stores-done and
		// mem-done conditions for load/store serialization.
		for p, s := range ring {
			storeMet[p] = !s.valid || !s.inst.IsStore() || s.memDone
			memMet[p] = !s.valid || !s.inst.IsMem() || s.memDone
		}
		d.allEarlier(storeMet, memMet, oldestPos, storesDone, memOpsDone)

		// Phase 3: execute. With gate-level memory arbitration, first
		// collect this cycle's eligible memory accesses and run them
		// through the fat-tree arbiter netlist; only granted stations may
		// begin their access.
		if arb != nil {
			for k := 0; k < n; k++ {
				p := posOf(k)
				s := ring[p]
				ages[p] = k
				reqs[p] = s.valid && !s.done && !s.started && s.inst.IsMem() &&
					operandsReady(s) &&
					(!s.inst.IsLoad() || storesDone[p]) &&
					(!s.inst.IsStore() || memOpsDone[p])
			}
			arb.grants(reqs, ages, memGrant)
		}
		for k := 0; k < n; k++ {
			s := ring[posOf(k)]
			if !s.valid || s.done {
				continue
			}
			if arb != nil && s.inst.IsMem() && !s.started && !memGrant[posOf(k)] {
				continue
			}
			in := s.inst
			if !operandsReady(s) {
				continue
			}
			var a, b isa.Word
			if r1, r2, nr := in.ReadRegs(); nr == 2 {
				a, b = s.regs[r1], s.regs[r2]
			} else if nr == 1 {
				a = s.regs[r1]
			}
			if !s.started {
				switch {
				case in.IsLoad():
					if !storesDone[posOf(k)] {
						continue
					}
				case in.IsStore():
					if !memOpsDone[posOf(k)] {
						continue
					}
				}
				s.started = true
				s.remaining = cfg.Lat.Of(in)
			}
			s.remaining--
			if s.remaining > 0 {
				continue
			}
			s.done = true
			switch {
			case in.IsHalt() || in.Op == isa.OpNop:
			case in.IsLoad():
				s.result = mem.Load(isa.EffAddr(in, a)) & mask
				s.memDone = true
			case in.IsStore():
				mem.Store(isa.EffAddr(in, a), b&mask)
				s.memDone = true
			case in.IsBranch():
				s.resolved = true
				s.nextPC = isa.NextPC(in, s.pc, a, b)
			case in.IsJump():
				s.resolved = true
				s.nextPC = isa.NextPC(in, s.pc, a, b)
				s.result = isa.Word(s.pc+1) & mask
			default:
				s.result = isa.ALUOp(in, a, b) & mask
			}
			if (in.ChangesFlow() || in.IsHalt()) && fetchStalled {
				if in.IsHalt() {
					// Fetch stays stalled; retirement ends the run.
				} else {
					fetchPC = s.nextPC
					fetchStalled = false
				}
			}
		}

		// Phase 4: retire in order from the oldest station.
		for count > 0 {
			s := ring[posOf(0)]
			if !s.valid || !s.done {
				break
			}
			if dst, ok := s.inst.Writes(); ok {
				commit[dst] = s.result & mask
			}
			retired++
			halt := s.inst.IsHalt()
			s.valid = false
			oldestPos = posOf(1)
			count--
			if halt {
				return &Result{Regs: commit, Mem: mem, Cycles: cycle + 1, Retired: retired}, nil
			}
		}

		// Phase 5: refill freed stations.
		if err := fill(); err != nil {
			return nil, err
		}
	}
	return nil, ErrNoHalt
}

// operandsReady reports whether every register s reads is ready.
func operandsReady(s *station) bool {
	r1, r2, nr := s.inst.ReadRegs()
	return (nr < 1 || s.ready[r1]) && (nr < 2 || s.ready[r2])
}

// checkRegs rejects an instruction naming a register the machine lacks.
func checkRegs(in isa.Inst, l int) error {
	r1, r2, nr := in.ReadRegs()
	regs := [2]uint8{r1, r2}
	for _, r := range regs[:nr] {
		if int(r) >= l {
			return fmt.Errorf("gatesim: %s reads r%d, machine has %d registers", in, r, l)
		}
	}
	if dst, ok := in.Writes(); ok && int(dst) >= l {
		return fmt.Errorf("gatesim: %s writes r%d, machine has %d registers", in, dst, l)
	}
	return nil
}
