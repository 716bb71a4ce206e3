package pe

import (
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/tech"
)

// ActivationEnergy estimates the energy of one PE activation that
// exercises the given operations (the ops of the rewrite rule the PE is
// configured with): the active functional units toggle, plus the PE's
// decode and operand-mux overhead. Idle units contribute nothing beyond
// leakage, which the model folds into the overhead term.
func (s *Spec) ActivationEnergy(ops []ir.Op, m *tech.Model) float64 {
	e := 0.0
	for _, op := range ops {
		if cl := op.HWClass(); cl != "" {
			e += m.HWClassCost(cl).Energy
		}
	}
	e += m.Unit("decode").Energy
	e += float64(s.muxFanin) * m.Unit("mux16").Energy * 0.25
	return e
}

// CriticalPathPS returns the longest combinational path through the
// datapath in picoseconds: the maximum over all structural paths of the
// sum of functional-unit delays plus a mux delay per multiplexed hop.
// Structural cycles introduced by merging (which no legal configuration
// activates) are broken by ignoring edges that close a cycle in DFS
// order, which can only underestimate the true configured path by the
// delay of the skipped edge's tail — acceptable for stage-count
// estimation.
func (s *Spec) CriticalPathPS(m *tech.Model) float64 {
	n := len(s.DP.Units)
	// adjacency: wire From -> To
	succ := make([][]merge.Wire, n)
	for _, w := range s.DP.Wires {
		succ[w.From] = append(succ[w.From], w)
	}
	unitDelay := func(u int) float64 {
		unit := &s.DP.Units[u]
		if unit.Kind != merge.UnitOp {
			return 0
		}
		// The slowest op the unit supports bounds its delay.
		d := 0.0
		for _, op := range unit.Ops {
			if cl := op.HWClass(); cl != "" {
				if cd := m.HWClassCost(cl).Delay; cd > d {
					d = cd
				}
			}
		}
		return d
	}
	state := make([]uint8, n)
	memo := make([]float64, n)
	muxDelay := m.Unit("mux16").Delay
	var longest func(u int) float64
	longest = func(u int) float64 {
		if state[u] == 2 {
			return memo[u]
		}
		if state[u] == 1 {
			return 0 // cycle: skip the closing edge
		}
		state[u] = 1
		best := 0.0
		for _, w := range succ[u] {
			d := longest(w.To)
			if len(s.PortSources(w.To, w.Port)) > 1 { // a multiplexed hop
				d += muxDelay
			}
			if d > best {
				best = d
			}
		}
		memo[u] = best + unitDelay(u)
		state[u] = 2
		return memo[u]
	}
	cp := 0.0
	for u := 0; u < n; u++ {
		if d := longest(u); d > cp {
			cp = d
		}
	}
	return cp
}
