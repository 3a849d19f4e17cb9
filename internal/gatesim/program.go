package gatesim

import (
	"math/bits"
	"slices"
	"sync"

	"ultrascalar/internal/circuit"
	"ultrascalar/internal/isa"
)

// Every netlist runs compiled (circuit.Program): each input and output
// net is a uint64 word carrying 64 independent lanes, so one evaluation
// serves every logical register of a register CSPP, or every cluster of
// a hybrid, at once.

// netKey names one compiled netlist: its kind and its sizes.
type netKey struct {
	net        string
	n, l, w, m int
}

// compiledNets caches programs by netKey. Programs are immutable, so
// concurrent runs share them.
var compiledNets sync.Map

type compiledNet[T any] struct {
	p   *circuit.Program
	lay T
}

// compiled returns the program (and layout) for key, building and
// compiling the netlist on first use.
func compiled[T any](key netKey, build func() (*circuit.Circuit, T)) (*circuit.Program, T) {
	if v, ok := compiledNets.Load(key); ok {
		e := v.(compiledNet[T])
		return e.p, e.lay
	}
	c, lay := build()
	v, _ := compiledNets.LoadOrStore(key, compiledNet[T]{c.Compile(), lay})
	e := v.(compiledNet[T])
	return e.p, e.lay
}

// netEval drives one program with reusable buffers. Callers clear and
// fill in, call eval, and read out.
type netEval struct {
	p      *circuit.Program
	in     []uint64
	out    []uint64
	vals   []uint64
	last   []uint64 // inputs of the last evaluation
	primed bool
}

func newNetEval(p *circuit.Program) *netEval {
	return &netEval{
		p:    p,
		in:   make([]uint64, p.NumInputs()),
		out:  make([]uint64, p.NumOutputs()),
		vals: make([]uint64, p.NumVals()),
		last: make([]uint64, p.NumInputs()),
	}
}

// eval evaluates the netlist on in. The netlists are combinational, so
// when in equals the previous call's inputs, out already holds the
// answer and the evaluation is skipped.
func (e *netEval) eval() {
	if e.primed && slices.Equal(e.in, e.last) {
		return
	}
	copy(e.last, e.in)
	e.primed = true
	e.p.Eval64(e.vals, e.in, e.out)
}

// setBits ORs lane bit into in[off+b] for every set bit b of v.
func setBits(in []uint64, off int, v uint64, bit uint64) {
	for ; v != 0; v &= v - 1 {
		in[off+bits.TrailingZeros64(v)] |= bit
	}
}

// getBits gathers lane's bits of out[off : off+width] into a value.
func getBits(out []uint64, off, width int, lane uint) uint64 {
	var v uint64
	for b := 0; b < width; b++ {
		v |= (out[off+b] >> lane & 1) << uint(b)
	}
	return v
}

// regCSPP drives a Figure 4 register CSPP (circuit.RegisterCSPP over
// W+1-bit values) with one lane per logical register, so the machines
// take at most 64 registers: item i's inputs are (modified, W value
// bits, ready), its outputs (W value bits, ready).
type regCSPP struct {
	e     *netEval
	items int
	w     int
}

func newRegCSPP(items, w int) *regCSPP {
	p, _ := compiled(netKey{net: "regcspp", n: items, w: w}, func() (*circuit.Circuit, struct{}) {
		return circuit.RegisterCSPP(items, w+1, true), struct{}{}
	})
	return &regCSPP{e: newNetEval(p), items: items, w: w}
}

// forward runs the CSPP for all l registers. insert(i, r) gives item i's
// inserted (modified, value, ready) for register r; latch(i) returns the
// register file item i latches its incoming values into, or nil.
func (f *regCSPP) forward(l int, insert func(i, r int) (bool, isa.Word, bool),
	latch func(i int) ([]isa.Word, []bool)) {
	in, out := f.e.in, f.e.out
	clear(in)
	for i := 0; i < f.items; i++ {
		off := i * (f.w + 2)
		for r := 0; r < l; r++ {
			mod, v, rdy := insert(i, r)
			if !mod {
				continue
			}
			bit := uint64(1) << uint(r)
			in[off] |= bit
			setBits(in, off+1, uint64(v)&(1<<uint(f.w)-1), bit)
			if rdy {
				in[off+1+f.w] |= bit
			}
		}
	}
	f.e.eval()
	laneMask := ^uint64(0) >> uint(64-l)
	for i := 0; i < f.items; i++ {
		vals, ready := latch(i)
		if vals == nil {
			continue
		}
		off := i * (f.w + 1)
		clear(vals)
		for b := 0; b < f.w; b++ {
			for word := out[off+b] & laneMask; word != 0; word &= word - 1 {
				vals[bits.TrailingZeros64(word)] |= 1 << uint(b)
			}
		}
		for r := range ready {
			ready[r] = out[off+f.w]>>uint(r)&1 == 1
		}
	}
}

// gridState is what one Ultrascalar II grid's inputs carry: the initial
// register file (values and ready bits) and the stations, nil-padded.
type gridState struct {
	initVal   []isa.Word
	initReady []bool
	stations  []*u2station
}

// gridEval drives an Ultrascalar II grid netlist (circuit.Ultra2Grid),
// one lane per grid instance: the Ultrascalar II's single grid, or one
// per hybrid cluster.
type gridEval struct {
	e   *netEval
	lay circuit.Ultra2Layout
}

func newGridEval(n, l, w int) *gridEval {
	p, lay := compiled(netKey{net: "grid", n: n, l: l, w: w}, func() (*circuit.Circuit, circuit.Ultra2Layout) {
		return circuit.Ultra2Grid(n, l, w, true)
	})
	return &gridEval{e: newNetEval(p), lay: lay}
}

// route evaluates the grid for up to 64 instances at once: state(lane)
// gives instance lane's inputs, or ok false for an idle lane. Each
// station's delivered arguments land in its argsA/argsB/argsOK; the
// grid's outgoing register columns stay in g.e.out (see outgoing).
func (g *gridEval) route(lanes int, state func(lane int) (gridState, bool)) {
	lay := g.lay
	in := g.e.in
	clear(in)
	vw := lay.W + 1
	ready := uint64(1) << uint(lay.W)
	mask := ready - 1
	per := lay.DestW + 1 + vw + 2*lay.DestW
	for lane := 0; lane < lanes; lane++ {
		st, ok := state(lane)
		if !ok {
			continue
		}
		bit := uint64(1) << uint(lane)
		for r := 0; r < lay.L; r++ {
			v := uint64(st.initVal[r]) & mask
			if st.initReady[r] {
				v |= ready
			}
			setBits(in, r*vw, v, bit)
		}
		for s, sp := range st.stations {
			if sp == nil {
				continue
			}
			off := lay.L*vw + s*per
			if d, ok := sp.inst.Writes(); ok {
				setBits(in, off, uint64(d), bit)
				in[off+lay.DestW] |= bit
			}
			v := uint64(sp.result) & mask
			if sp.done {
				v |= ready
			}
			setBits(in, off+lay.DestW+1, v, bit)
			r1, r2, nr := sp.inst.ReadRegs()
			if nr > 0 {
				setBits(in, off+lay.DestW+1+vw, uint64(r1), bit)
			}
			if nr > 1 {
				setBits(in, off+2*lay.DestW+1+vw, uint64(r2), bit)
			}
		}
	}
	g.e.eval()
	for lane := 0; lane < lanes; lane++ {
		st, ok := state(lane)
		if !ok {
			continue
		}
		for s, sp := range st.stations {
			if sp == nil {
				continue
			}
			a := getBits(g.e.out, 2*s*vw, vw, uint(lane))
			b := getBits(g.e.out, (2*s+1)*vw, vw, uint(lane))
			_, _, nr := sp.inst.ReadRegs()
			sp.argsA, sp.argsB = isa.Word(a&^ready), isa.Word(b&^ready)
			sp.argsOK = (nr < 1 || a&ready != 0) && (nr < 2 || b&ready != 0)
		}
	}
}

// outgoing reads lane's final register values, the grid's outgoing
// columns after the last route, into regs.
func (g *gridEval) outgoing(lane int, regs []isa.Word) {
	vw := g.lay.W + 1
	base := g.lay.N * 2 * vw
	for r := range regs {
		regs[r] = isa.Word(getBits(g.e.out, base+r*vw, g.lay.W, uint(lane)))
	}
}
