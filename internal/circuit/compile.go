package circuit

import "fmt"

// A Program is a netlist compiled for fast repeated evaluation. Inputs,
// constants and buffers take no work: inputs and the two constants own
// the first value slots, a buffer aliases its operand's slot, and gates
// with a constant operand fold away (see Compile). What remains is a flat
// list of logic ops in topological order, held as struct-of-arrays so the
// evaluation loop touches only int32 operand indices and uint64 words.
//
// Every op is one select, dst = s ? b^inv : a, which covers all the gate
// kinds without a branch per op:
//
//	not x     = x ? 0 : 1
//	and x y   = x ? y : 0
//	or x y    = x ? 1 : y
//	xor x y   = x ? ^y : y
//	mux s a b = s ? b : a
//
// Every value is a uint64 word whose 64 bits are 64 independent lanes:
// one Eval64 call evaluates the netlist for 64 input assignments at once.
//
// A Program is immutable once compiled, so any number of goroutines may
// evaluate it concurrently, each with its own value buffer.
type Program struct {
	s, a, b, dst []int32  // select, low arm, high arm and result slots
	inv          []uint64 // all ones where the high arm is inverted (xor)
	numIn        int      // slots [0, numIn) are the inputs in order
	numVals      int
	out          []int32 // slot of each designated output

	// gates and outputs are the circuit's sizes when compiled; a
	// circuit only grows, so equal sizes mean the same netlist.
	gates, outputs int
}

// NumInputs returns the number of input words Eval64 takes.
func (p *Program) NumInputs() int { return p.numIn }

// NumOutputs returns the number of output words Eval64 produces.
func (p *Program) NumOutputs() int { return len(p.out) }

// NumVals returns the length of the value buffer Eval64 needs.
func (p *Program) NumVals() int { return p.numVals }

// NumOps returns the number of logic ops left after compilation.
func (p *Program) NumOps() int { return len(p.dst) }

// Eval64 evaluates 64 lanes at once: bit k of in[i] is input i of lane
// k, and bit k of out[j] receives output j of lane k. vals is scratch
// space of at least NumVals words; it is overwritten. Eval64 does not
// allocate.
func (p *Program) Eval64(vals, in, out []uint64) {
	if len(in) != p.numIn || len(out) != len(p.out) || len(vals) < p.numVals {
		panic(fmt.Sprintf("circuit: Eval64 got %d inputs, %d outputs, %d vals; want %d, %d, %d",
			len(in), len(out), len(vals), p.numIn, len(p.out), p.numVals))
	}
	copy(vals, in)
	vals[p.numIn] = 0
	vals[p.numIn+1] = ^uint64(0)
	n := len(p.dst)
	s, a, b, dst, inv := p.s[:n], p.a[:n], p.b[:n], p.dst[:n], p.inv[:n]
	for i := range dst {
		sel := vals[s[i]]
		vals[dst[i]] = vals[a[i]]&^sel | (vals[b[i]]^inv[i])&sel
	}
	for j, slot := range p.out {
		out[j] = vals[slot]
	}
}

// Eval computes the outputs for one input assignment: lane 0 of the
// compiled program. The length of in must equal NumInputs.
func (c *Circuit) Eval(in []bool) []bool {
	if len(in) != len(c.inputs) {
		panic(fmt.Sprintf("circuit: Eval got %d inputs, want %d", len(in), len(c.inputs)))
	}
	p := c.Compile()
	words := make([]uint64, len(in))
	for i, v := range in {
		if v {
			words[i] = 1
		}
	}
	out := make([]uint64, len(c.outputs))
	p.Eval64(make([]uint64, p.numVals), words, out)
	res := make([]bool, len(out))
	for i, w := range out {
		res[i] = w&1 == 1
	}
	return res
}

// Compile returns the netlist compiled into a Program. The result is
// cached on the circuit until more gates or outputs are added.
//
// Compilation folds every gate it can decide from constants or repeated
// operands:
//
//	buf x              → x
//	not 0, not 1       → 1, 0
//	and x 0, and x 1   → 0, x       (either operand order)
//	or x 1, or x 0     → 1, x
//	xor x 0, xor x 1   → x, not x
//	and x x, or x x    → x
//	xor x x            → 0
//	mux 0 a b, mux 1 a b → a, b
//	mux s a a          → a
//	mux s 0 1, mux s 1 0 → s, not s
//
// and then drops every op no output depends on.
func (c *Circuit) Compile() *Program {
	if p := c.prog.Load(); p != nil && p.gates == len(c.gates) && p.outputs == len(c.outputs) {
		return p
	}
	p := compile(c)
	c.prog.Store(p)
	return p
}

func compile(c *Circuit) *Program {
	numIn := len(c.inputs)
	k0, k1 := int32(numIn), int32(numIn+1)
	// First pass: fold, assigning each gate the slot that holds its
	// value; surviving ops get fresh slots after the constants.
	slot := make([]int32, len(c.gates))
	var ss, as, bs []int32
	var invs []bool
	next := k1 + 1
	emit := func(s, a, b int32, inv bool) int32 {
		ss, as, bs, invs = append(ss, s), append(as, a), append(bs, b), append(invs, inv)
		next++
		return next - 1
	}
	not := func(x int32) int32 {
		switch x {
		case k0:
			return k1
		case k1:
			return k0
		}
		return emit(x, k1, k0, false)
	}
	nextIn := int32(0)
	for id, g := range c.gates {
		x, y, z := int32(-1), int32(-1), int32(-1)
		if ar := g.kind.arity(); ar > 0 {
			x = slot[g.in[0]]
			if ar > 1 {
				y = slot[g.in[1]]
			}
			if ar > 2 {
				z = slot[g.in[2]]
			}
		}
		var v int32
		switch g.kind {
		case Input:
			v = nextIn
			nextIn++
		case Const0:
			v = k0
		case Const1:
			v = k1
		case Buf:
			v = x
		case Not:
			v = not(x)
		case And2:
			switch {
			case x == k0 || y == k0:
				v = k0
			case x == k1 || x == y:
				v = y
			case y == k1:
				v = x
			default:
				v = emit(x, k0, y, false)
			}
		case Or2:
			switch {
			case x == k1 || y == k1:
				v = k1
			case x == k0 || x == y:
				v = y
			case y == k0:
				v = x
			default:
				v = emit(x, y, k1, false)
			}
		case Xor2:
			switch {
			case x == y:
				v = k0
			case x == k0:
				v = y
			case y == k0:
				v = x
			case x == k1:
				v = not(y)
			case y == k1:
				v = not(x)
			default:
				v = emit(x, y, y, true)
			}
		case Mux2: // select x, low arm y, high arm z
			switch {
			case x == k0 || y == z:
				v = y
			case x == k1:
				v = z
			case y == k0 && z == k1:
				v = x
			case y == k1 && z == k0:
				v = not(x)
			default:
				v = emit(x, y, z, false)
			}
		}
		slot[id] = v
	}

	// Second pass: keep only ops an output depends on, renumbering
	// their result slots densely in the same (topological) order.
	base := k1 + 1
	live := make([]bool, next)
	for _, id := range c.outputs {
		live[slot[id]] = true
	}
	for i := len(ss) - 1; i >= 0; i-- {
		if live[base+int32(i)] {
			live[as[i]], live[bs[i]], live[ss[i]] = true, true, true
		}
	}
	renum := make([]int32, next)
	for i := int32(0); i < base; i++ {
		renum[i] = i
	}
	p := &Program{numIn: numIn, gates: len(c.gates), outputs: len(c.outputs)}
	for i := range ss {
		if !live[base+int32(i)] {
			continue
		}
		d := base + int32(len(p.dst))
		renum[base+int32(i)] = d
		p.s = append(p.s, renum[ss[i]])
		p.a = append(p.a, renum[as[i]])
		p.b = append(p.b, renum[bs[i]])
		var inv uint64
		if invs[i] {
			inv = ^uint64(0)
		}
		p.inv = append(p.inv, inv)
		p.dst = append(p.dst, d)
	}
	p.numVals = int(base) + len(p.dst)
	p.out = make([]int32, len(c.outputs))
	for j, id := range c.outputs {
		p.out[j] = renum[slot[id]]
	}
	return p
}
