package gatesim

import (
	"fmt"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
	"ultrascalar/internal/memory"
)

// Gate-level hybrid Ultrascalar (paper Section 6, Figures 9-10): clusters
// of C stations, each an Ultrascalar II grid netlist extended with the
// Figure 9 modified-bit OR circuit, connected by the Ultrascalar I
// register CSPP trees at cluster granularity. "From the viewpoint of the
// Ultrascalar I part of the datapath, a single cluster behaves just like
// a subtree of [C] stations ... exactly one cluster is the oldest on any
// clock cycle, and the committed register file is kept in the oldest
// cluster."

// hybridCluster is one cluster of the ring.
type hybridCluster struct {
	valid    bool
	stations []*u2station // fixed capacity C; nil-padded after a flow stop
	slots    []u2station  // backing store of stations
	count    int

	// incoming is the cluster's latched register file: per register, the
	// value and ready bit delivered by the inter-cluster CSPP.
	inVal   []isa.Word
	inReady []bool
	// modified holds the cluster's Figure 9 modified bits, computed once
	// per refill by evaluating the OR netlist over the loaded batch.
	modified []bool
}

// HybridConfig sizes the gate-level hybrid.
type HybridConfig struct {
	Window    int // total stations n
	Cluster   int // stations per cluster C
	NumRegs   int
	Width     int
	Lat       isa.Latencies
	MaxCycles int64
}

// RunHybrid executes prog on the gate-level hybrid. Fetch follows the
// architectural path (stalling at control transfers until they resolve);
// clusters refill as units once all their instructions and all earlier
// instructions have finished.
func RunHybrid(prog []isa.Inst, mem *memory.Flat, cfg HybridConfig) (*Result, error) {
	if cfg.Window < 1 || cfg.Cluster < 1 || cfg.Window%cfg.Cluster != 0 {
		return nil, fmt.Errorf("gatesim: bad hybrid geometry n=%d C=%d", cfg.Window, cfg.Cluster)
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
	nC, C, l, w := cfg.Window/cfg.Cluster, cfg.Cluster, cfg.NumRegs, cfg.Width
	mask := isa.Word(1)<<uint(w) - 1

	if l > 64 {
		return nil, fmt.Errorf("gatesim: %d registers, at most 64", l)
	}
	grid := newGridEval(C, l, w)
	inter := newRegCSPP(nC, w)
	modOR := newModifiedBits(C, l)

	ring := make([]*hybridCluster, nC)
	for i := range ring {
		ring[i] = &hybridCluster{
			stations: make([]*u2station, 0, C),
			slots:    make([]u2station, C),
			inVal:    make([]isa.Word, l),
			inReady:  make([]bool, l),
			modified: make([]bool, l),
		}
	}
	commit := make([]isa.Word, l)
	oldest := 0
	active := 0
	pc := 0
	fetchStalled := false
	var cycles, retired int64

	posOf := func(k int) int { return (oldest + k) % nC }

	// fill loads empty clusters in age order with up to C sequential
	// instructions each, stopping at control transfers.
	fill := func() error {
		for active < nC && !fetchStalled {
			if pc < 0 || pc >= len(prog) {
				if active == 0 {
					return fmt.Errorf("gatesim: fetch ran out of program at pc=%d", pc)
				}
				return nil
			}
			cl := ring[posOf(active)]
			cl.valid = true
			cl.stations = cl.stations[:0]
			for len(cl.stations) < C && !fetchStalled {
				if pc < 0 || pc >= len(prog) {
					break
				}
				in := prog[pc]
				if err := checkRegs(in, l); err != nil {
					return err
				}
				s := &cl.slots[len(cl.stations)]
				*s = u2station{inst: in, pc: pc}
				cl.stations = append(cl.stations, s)
				if in.IsHalt() || in.ChangesFlow() {
					fetchStalled = true
					break
				}
				pc++
			}
			cl.count = len(cl.stations)
			modOR.eval(cl.stations, cl.modified)
			active++
		}
		return nil
	}
	if err := fill(); err != nil {
		return nil, err
	}

	// clusterReg gives cluster ci's outgoing (modified, value, ready) for
	// register r, its insertion into the inter-cluster CSPP: modified
	// bits from the Figure 9 OR netlist; value and readiness from the
	// newest writing station when modified; the committed file for the
	// oldest cluster otherwise.
	clusterReg := func(ci, r int) (bool, isa.Word, bool) {
		cl, isOldest := ring[ci], ci == oldest
		if !cl.valid {
			if isOldest {
				return true, commit[r] & mask, true
			}
			return false, 0, false
		}
		if cl.modified[r] {
			// The Figure 9 OR netlist marked this register; the newest
			// writing station supplies the value and ready bit.
			var v isa.Word
			rdy := false
			for _, s := range cl.stations {
				if s == nil {
					continue
				}
				if dst, ok := s.inst.Writes(); ok && int(dst) == r {
					v = s.result & mask
					rdy = s.done
				}
			}
			return true, v, rdy
		}
		if isOldest {
			return true, commit[r] & mask, true
		}
		return false, 0, false
	}

	latch := func(ci int) ([]isa.Word, []bool) {
		if ci == oldest || !ring[ci].valid {
			return nil, nil
		}
		return ring[ci].inVal, ring[ci].inReady
	}

	for cycles < cfg.MaxCycles {
		// Phase 1: inter-cluster CSPP per register; non-oldest clusters
		// latch incoming values; the oldest's file is the committed state.
		// One lane per register carries every register's tree at once.
		inter.forward(l, clusterReg, latch)
		old := ring[oldest]
		for r := range commit {
			old.inVal[r], old.inReady[r] = commit[r]&mask, true
		}

		// Phase 2: within each cluster, the grid netlist routes arguments
		// from the cluster's incoming file and earlier stations, one lane
		// per cluster.
		for base := 0; base < nC; base += 64 {
			grid.route(min(nC-base, 64), func(lane int) (gridState, bool) {
				cl := ring[base+lane]
				return gridState{initVal: cl.inVal, initReady: cl.inReady, stations: cl.stations}, cl.valid
			})
		}

		// Phase 3: memory serialization across the whole window (global
		// program order), then execution.
		storesDone, memDone := true, true
		for k := 0; k < nC; k++ {
			cl := ring[posOf(k)]
			if !cl.valid {
				continue
			}
			for _, s := range cl.stations {
				if s == nil {
					continue
				}
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
					s.result = isa.Word(s.pc+1) & mask
					if fetchStalled && !in.IsHalt() {
						pc = s.nextPC
						fetchStalled = false
					}
				default:
					s.result = isa.ALUOp(in, s.argsA, s.argsB) & mask
				}
			}
		}
		cycles++

		// Phase 4: retire whole clusters from the oldest position ("a
		// cluster behaves just like an execution station").
		for active > 0 {
			cl := ring[posOf(0)]
			if !cl.valid || !clusterDone(cl) {
				break
			}
			for _, s := range cl.stations {
				if s == nil {
					continue
				}
				if dst, ok := s.inst.Writes(); ok {
					commit[dst] = s.result & mask
				}
				retired++
				if s.inst.IsHalt() {
					return &Result{Regs: commit, Mem: mem, Cycles: cycles, Retired: retired}, nil
				}
			}
			cl.valid = false
			oldest = posOf(1)
			active--
		}

		// Phase 5: refill.
		if err := fill(); err != nil {
			return nil, err
		}
		if active == 0 {
			return nil, fmt.Errorf("gatesim: window drained without halt at pc=%d", pc)
		}
	}
	return nil, ErrNoHalt
}

func clusterDone(cl *hybridCluster) bool {
	for _, s := range cl.stations {
		if s != nil && !s.done {
			return false
		}
	}
	return true
}

// modifiedBits drives the Figure 9 modified-bit OR netlist
// (circuit.HybridModifiedBits): one bit per logical register, high when
// any station in the cluster writes it.
type modifiedBits struct {
	e  *netEval
	dw int
}

func newModifiedBits(c, l int) *modifiedBits {
	p, _ := compiled(netKey{net: "modified", n: c, l: l}, func() (*circuit.Circuit, struct{}) {
		return circuit.HybridModifiedBits(c, l, true), struct{}{}
	})
	dw := 1
	for 1<<dw < l {
		dw++
	}
	return &modifiedBits{e: newNetEval(p), dw: dw}
}

// eval computes the modified bits of a cluster's stations into mod.
func (m *modifiedBits) eval(stations []*u2station, mod []bool) {
	in := m.e.in
	clear(in)
	for s, st := range stations {
		if d, ok := st.inst.Writes(); ok {
			off := s * (m.dw + 1)
			setBits(in, off, uint64(d), 1)
			in[off+m.dw] = 1
		}
	}
	m.e.eval()
	for r, w := range m.e.out {
		mod[r] = w&1 == 1
	}
}
