package gatesim

import "ultrascalar/internal/circuit"

// memArbiter wraps the gate-level fat-tree arbiter netlist for per-cycle
// memory-access arbitration: per-level link capacities min(2^h, M), age
// tags giving the oldest requests priority.
type memArbiter struct {
	e      *netEval
	layout circuit.FatTreeArbiterLayout
}

func newMemArbiter(n, m int) *memArbiter {
	// Round the station count up to a power of two for the tree.
	size := 1
	levels := 0
	for size < n {
		size *= 2
		levels++
	}
	if levels == 0 {
		size, levels = 2, 1 // a degenerate 1-station tree still needs a root
	}
	p, lay := compiled(netKey{net: "arbiter", n: size, m: m}, func() (*circuit.Circuit, circuit.FatTreeArbiterLayout) {
		caps := make([]int, levels)
		for h := 1; h <= levels; h++ {
			caps[h-1] = min(1<<h, m)
		}
		tagW := 1
		for 1<<tagW < size {
			tagW++
		}
		tagW++ // headroom so ages 0..size-1 are distinct tags
		return circuit.FatTreeArbiter(size, tagW, caps)
	})
	return &memArbiter{e: newNetEval(p), layout: lay}
}

// grants evaluates the arbiter netlist into grant: reqs, ages and grant
// are indexed by ring position; ages must be distinct for requesting
// positions.
func (a *memArbiter) grants(reqs []bool, ages []int, grant []bool) {
	in := a.e.in
	clear(in)
	for i, req := range reqs {
		off := i * (1 + a.layout.TagW)
		if req {
			in[off] = 1
		}
		setBits(in, off+1, uint64(ages[i]), 1)
	}
	a.e.eval()
	for i := range grant {
		grant[i] = a.e.out[i]&1 == 1
	}
}
