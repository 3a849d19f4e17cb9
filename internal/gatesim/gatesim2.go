package gatesim

import (
	"errors"
	"fmt"

	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// Gate-level Ultrascalar II: batches of instructions execute against the
// actual grid netlist of the paper's Figures 7-8 (comparators searching
// register bindings, reduction columns delivering arguments). Every cycle
// the grid is re-evaluated combinationally from the stations' current
// results — exactly the hardware's behaviour, where "on every clock
// cycle, stations with ready arguments compute and newly computed results
// propagate through the network. Eventually, all stations finish
// computing and the final values of all the registers are ready. At that
// time, the final values are latched into the register file [and] the
// stations refill with new instructions."

// ErrUltra2Flow is returned when a program's control transfer lands
// outside the program.
var ErrUltra2Flow = errors.New("gatesim: control flow left the program")

// u2station is one station of the current batch.
type u2station struct {
	inst isa.Inst
	pc   int

	started   bool
	remaining int
	done      bool
	result    isa.Word
	resolved  bool
	nextPC    int
	memDone   bool
	argsA     isa.Word
	argsB     isa.Word
	argsOK    bool
}

// RunUltra2 executes prog on a gate-level Ultrascalar II of n stations.
// Fetch follows the architectural path (resolving each batch's trailing
// control transfer before refilling past it), loads and stores serialize
// in program order within the batch, and the whole batch drains before
// the next is fetched — the paper's non-wrap-around semantics.
func RunUltra2(prog []isa.Inst, mem *memory.Flat, cfg Config) (*Result, error) {
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
	grid := newGridEval(n, l, w)
	var arb *memArbiter
	if cfg.MemBandwidth > 0 {
		arb = newMemArbiter(n, cfg.MemBandwidth)
	}

	commit := make([]isa.Word, l)
	var cycles, retired int64
	pc := 0

	// The grid's initial register file is the committed one, all ready.
	allReady := make([]bool, l)
	for r := range allReady {
		allReady[r] = true
	}
	slots := make([]u2station, n)
	batch := make([]*u2station, 0, n)
	state := func(int) (gridState, bool) {
		return gridState{initVal: commit, initReady: allReady, stations: batch}, true
	}
	reqs := make([]bool, n)
	ages := make([]int, n)
	memGrant := make([]bool, n)

	for cycles < cfg.MaxCycles {
		// Fetch one batch along the architectural path: sequential
		// instructions up to n, stopping after a control transfer or
		// halt (resolved before the next batch) or at the window size.
		batch = batch[:0]
		haltIdx := -1
		for len(batch) < n {
			if pc < 0 || pc >= len(prog) {
				if len(batch) == 0 {
					return nil, fmt.Errorf("%w: pc=%d", ErrUltra2Flow, pc)
				}
				break
			}
			in := prog[pc]
			if err := checkRegs(in, l); err != nil {
				return nil, err
			}
			s := &slots[len(batch)]
			*s = u2station{inst: in, pc: pc}
			batch = append(batch, s)
			if in.IsHalt() {
				haltIdx = len(batch) - 1
				break
			}
			if in.ChangesFlow() {
				break // resolve before fetching past it
			}
			pc++
		}

		// Execute the batch to completion, re-evaluating the grid
		// netlist each cycle.
		for !batchDone(batch) {
			if cycles >= cfg.MaxCycles {
				return nil, ErrNoHalt
			}
			grid.route(1, state)
			if arb != nil {
				clear(reqs)
				clear(ages)
				sd, md := true, true
				for i, s := range batch {
					ages[i] = i
					eligible := !s.done && !s.started && s.argsOK && s.inst.IsMem() &&
						(!s.inst.IsLoad() || sd) && (!s.inst.IsStore() || md)
					reqs[i] = eligible
					if s.inst.IsStore() {
						sd = sd && s.memDone
						md = md && s.memDone
					}
					if s.inst.IsLoad() {
						md = md && s.memDone
					}
				}
				arb.grants(reqs, ages, memGrant)
			}
			storesDone, memDone := true, true
			for i, s := range batch {
				sd, md := storesDone, memDone
				if s.inst.IsStore() {
					storesDone = storesDone && s.memDone
					memDone = memDone && s.memDone
				}
				if s.inst.IsLoad() {
					memDone = memDone && s.memDone
				}
				if s.done || !s.argsOK {
					continue
				}
				if s.inst.IsLoad() && !sd {
					continue
				}
				if s.inst.IsStore() && !md {
					continue
				}
				if arb != nil && s.inst.IsMem() && !s.started && !memGrant[i] {
					continue
				}
				if !s.started {
					s.started = true
					s.remaining = cfg.Lat.Of(s.inst)
				}
				s.remaining--
				if s.remaining > 0 {
					continue
				}
				s.done = true
				in := s.inst
				switch {
				case in.IsHalt() || in.Op == isa.OpNop:
				case in.IsLoad():
					s.result = mem.Load(isa.EffAddr(in, s.argsA)) & mask
					s.memDone = true
				case in.IsStore():
					mem.Store(isa.EffAddr(in, s.argsA), s.argsB&mask)
					s.memDone = true
				case in.IsBranch(), in.IsJump():
					s.resolved = true
					s.nextPC = isa.NextPC(in, s.pc, s.argsA, s.argsB)
					s.result = isa.Word(s.pc+1) & mask // link (jumps only)
				default:
					s.result = isa.ALUOp(in, s.argsA, s.argsB) & mask
				}
			}
			cycles++
		}

		// Batch complete: latch the final register values (the grid's
		// outgoing columns) into the register file and refill.
		// Every station is done, so one more evaluation carries the final
		// values on the grid's outgoing columns.
		grid.route(1, state)
		grid.outgoing(0, commit)
		retired += int64(len(batch))
		if haltIdx >= 0 {
			return &Result{Regs: commit, Mem: mem, Cycles: cycles, Retired: retired}, nil
		}
		last := batch[len(batch)-1]
		if last.inst.ChangesFlow() {
			pc = last.nextPC
		}
	}
	return nil, ErrNoHalt
}

func batchDone(batch []*u2station) bool {
	for _, s := range batch {
		if !s.done {
			return false
		}
	}
	return true
}
