package circuit

import (
	"fmt"
	"math/rand"
	"testing"
)

// interpret evaluates the netlist gate by gate, one bool per gate,
// straight from the uncompiled gate list: the reference the compiled
// program is checked against.
func interpret(c *Circuit, in []bool) []bool {
	vals := make([]bool, len(c.gates))
	next := 0
	for id, g := range c.gates {
		x, y, z := g.in[0], g.in[1], g.in[2]
		switch g.kind {
		case Input:
			vals[id] = in[next]
			next++
		case Const0:
			vals[id] = false
		case Const1:
			vals[id] = true
		case Buf:
			vals[id] = vals[x]
		case Not:
			vals[id] = !vals[x]
		case And2:
			vals[id] = vals[x] && vals[y]
		case Or2:
			vals[id] = vals[x] || vals[y]
		case Xor2:
			vals[id] = vals[x] != vals[y]
		case Mux2:
			if vals[x] {
				vals[id] = vals[z]
			} else {
				vals[id] = vals[y]
			}
		}
	}
	out := make([]bool, len(c.outputs))
	for i, id := range c.outputs {
		out[i] = vals[id]
	}
	return out
}

// checkLanes evaluates 64 lanes of in through the compiled program and
// compares every lane with the interpreter.
func checkLanes(t *testing.T, name string, c *Circuit, in []uint64) {
	t.Helper()
	p := c.Compile()
	out := make([]uint64, p.NumOutputs())
	p.Eval64(make([]uint64, p.NumVals()), in, out)
	lane := make([]bool, len(in))
	for k := uint(0); k < 64; k++ {
		for i, w := range in {
			lane[i] = w>>k&1 == 1
		}
		for j, want := range interpret(c, lane) {
			if got := out[j]>>k&1 == 1; got != want {
				t.Fatalf("%s: lane %d output %d = %v, interpreter %v", name, k, j, got, want)
			}
		}
	}
}

// TestEval64MatchesInterpreter drives random 64-lane words through every
// netlist family and requires each lane to equal the gate-by-gate
// evaluation.
func TestEval64MatchesInterpreter(t *testing.T) {
	arb, _ := FatTreeArbiter(8, 4, []int{1, 2, 2})
	families := map[string]*Circuit{
		"register-cspp-ring": RegisterCSPP(5, 4, false),
		"register-cspp-tree": RegisterCSPP(5, 4, true),
		"figure5-ring":       Figure5CSPP(6, false),
		"figure5-tree":       Figure5CSPP(6, true),
		"hybrid-modified":    HybridModifiedBits(3, 5, true),
		"hybrid-modified-ln": HybridModifiedBits(3, 5, false),
		"fat-tree-arbiter":   arb,
		"alu-prefix":         ALU(8, true),
		"alu-ripple":         ALU(8, false),
		"scheduler":          Scheduler(6, 2),
	}
	for _, tree := range []bool{false, true} {
		grid, _ := Ultra2Grid(3, 4, 3, tree)
		families[fmt.Sprintf("ultra2-grid-tree=%v", tree)] = grid
	}
	rng := rand.New(rand.NewSource(12))
	for name, c := range families {
		if c.Compile().NumOps() >= c.NumGates() {
			t.Errorf("%s: %d ops from %d gates; compilation removed nothing", name, c.Compile().NumOps(), c.NumGates())
		}
		for round := 0; round < 4; round++ {
			in := make([]uint64, c.NumInputs())
			for i := range in {
				in[i] = rng.Uint64()
			}
			checkLanes(t, name, c, in)
		}
	}
}

// TestFoldRules checks each constant fold: the folded gate must leave
// exactly wantOps ops and compute what the interpreter computes on
// every input assignment.
func TestFoldRules(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(c *Circuit, x, y, z int) int
		wantOps int
	}{
		{"buf x", func(c *Circuit, x, _, _ int) int { return c.Buf(x) }, 0},
		{"not 0", func(c *Circuit, _, _, _ int) int { return c.Not(c.Const(false)) }, 0},
		{"not 1", func(c *Circuit, _, _, _ int) int { return c.Not(c.Const(true)) }, 0},
		{"and x 0", func(c *Circuit, x, _, _ int) int { return c.And(x, c.Const(false)) }, 0},
		{"and 0 x", func(c *Circuit, x, _, _ int) int { return c.And(c.Const(false), x) }, 0},
		{"and x 1", func(c *Circuit, x, _, _ int) int { return c.And(x, c.Const(true)) }, 0},
		{"and 1 x", func(c *Circuit, x, _, _ int) int { return c.And(c.Const(true), x) }, 0},
		{"and x x", func(c *Circuit, x, _, _ int) int { return c.And(x, c.Buf(x)) }, 0},
		{"or x 1", func(c *Circuit, x, _, _ int) int { return c.Or(x, c.Const(true)) }, 0},
		{"or 1 x", func(c *Circuit, x, _, _ int) int { return c.Or(c.Const(true), x) }, 0},
		{"or x 0", func(c *Circuit, x, _, _ int) int { return c.Or(x, c.Const(false)) }, 0},
		{"or 0 x", func(c *Circuit, x, _, _ int) int { return c.Or(c.Const(false), x) }, 0},
		{"or x x", func(c *Circuit, x, _, _ int) int { return c.Or(x, x) }, 0},
		{"xor x 0", func(c *Circuit, x, _, _ int) int { return c.Xor(x, c.Const(false)) }, 0},
		{"xor 0 x", func(c *Circuit, x, _, _ int) int { return c.Xor(c.Const(false), x) }, 0},
		{"xor x 1", func(c *Circuit, x, _, _ int) int { return c.Xor(x, c.Const(true)) }, 1},
		{"xor 1 x", func(c *Circuit, x, _, _ int) int { return c.Xor(c.Const(true), x) }, 1},
		{"xor 1 1", func(c *Circuit, _, _, _ int) int { return c.Xor(c.Const(true), c.Const(true)) }, 0},
		{"xor x x", func(c *Circuit, x, _, _ int) int { return c.Xor(x, c.Buf(x)) }, 0},
		{"mux 0 a b", func(c *Circuit, _, y, z int) int { return c.Mux(c.Const(false), y, z) }, 0},
		{"mux 1 a b", func(c *Circuit, _, y, z int) int { return c.Mux(c.Const(true), y, z) }, 0},
		{"mux s a a", func(c *Circuit, x, y, _ int) int { return c.Mux(x, y, c.Buf(y)) }, 0},
		{"mux s 0 1", func(c *Circuit, x, _, _ int) int { return c.Mux(x, c.Const(false), c.Const(true)) }, 0},
		{"mux s 1 0", func(c *Circuit, x, _, _ int) int { return c.Mux(x, c.Const(true), c.Const(false)) }, 1},
		{"folds chain", func(c *Circuit, x, y, _ int) int { return c.And(c.Or(x, c.Const(true)), c.Xor(y, c.Const(false))) }, 0},
		{"unfolded and", func(c *Circuit, x, y, _ int) int { return c.And(x, y) }, 1},
		{"unfolded mux", func(c *Circuit, x, y, z int) int { return c.Mux(x, y, z) }, 1},
		{"dead gates", func(c *Circuit, x, y, z int) int {
			c.Mux(x, y, z) // feeds no output
			return c.Or(y, z)
		}, 1},
	} {
		c := New()
		x, y, z := c.NewInput(), c.NewInput(), c.NewInput()
		c.Output(tc.build(c, x, y, z))
		if got := c.Compile().NumOps(); got != tc.wantOps {
			t.Errorf("%s: %d ops, want %d", tc.name, got, tc.wantOps)
		}
		// Lanes 0-7 enumerate all eight assignments of x, y, z.
		checkLanes(t, tc.name, c, []uint64{0xaa, 0xcc, 0xf0})
	}
}

// TestCompileCache: Compile is cached until the circuit grows, and a
// grown circuit compiles afresh.
func TestCompileCache(t *testing.T) {
	c := New()
	x := c.NewInput()
	c.Output(c.Not(x))
	p := c.Compile()
	if c.Compile() != p {
		t.Error("unchanged circuit compiled twice")
	}
	c.Output(x)
	if q := c.Compile(); q == p || q.NumOutputs() != 2 {
		t.Errorf("grown circuit kept its stale program (%d outputs)", q.NumOutputs())
	}
	if got := c.Eval([]bool{true}); got[0] || !got[1] {
		t.Errorf("Eval after growth = %v, want [false true]", got)
	}
}

func TestEval64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval64 with a short value buffer should panic")
		}
	}()
	c := New()
	c.Output(c.And(c.NewInput(), c.NewInput()))
	p := c.Compile()
	p.Eval64(make([]uint64, p.NumVals()-1), make([]uint64, 2), make([]uint64, 1))
}

func BenchmarkEval64Ultra2Grid(b *testing.B) {
	c, lay := Ultra2Grid(4, 32, 32, true)
	p := c.Compile()
	vals := make([]uint64, p.NumVals())
	in := make([]uint64, lay.NumInputs())
	out := make([]uint64, p.NumOutputs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval64(vals, in, out)
	}
}
