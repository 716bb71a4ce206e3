// Package pipeline implements the paper's two automated pipelining
// passes: PE pipelining (Section 4.2 — static-timing-driven stage-count
// selection with register retiming after Calland et al.) and application
// pipelining (Section 4.3 — branch delay matching with register-file FIFO
// substitution for long register chains).
package pipeline

import (
	"math"
	"sort"

	"repro/internal/merge"
	"repro/internal/pe"
	"repro/internal/tech"
)

// PipelinedPE is a PE spec with its chosen pipeline depth and the
// retiming result.
type PipelinedPE struct {
	Spec *pe.Spec
	// Stages is the number of pipeline registers on the input-to-output
	// path (0 = combinational). A PE with S stages has latency S cycles.
	Stages int
	// PeriodPS is the achieved clock period after retiming.
	PeriodPS float64
	// StageOf assigns each datapath unit to a pipeline stage.
	StageOf []int
	// ExtraRegs is the number of 16-bit pipeline registers retiming
	// inserted (one per unit-output crossing a stage boundary).
	ExtraRegs int
}

// maxStages caps PE pipeline depth: PipelinePE deepens a PE until its
// period meets tech.ClockPeriodPS or it reaches this many stages.
const maxStages = 6

// Options tunes PE pipelining.
type Options struct {
	// MinGain is the minimum fractional period reduction an extra stage
	// must deliver to be worth it (paper: "determining when adding
	// another stage gives a significant benefit"); default 0.10.
	MinGain float64
}

func (o Options) withDefaults() Options {
	if o.MinGain <= 0 {
		o.MinGain = 0.10
	}
	return o
}

// PipelinePE chooses the pipeline depth for a PE with the paper's
// iterative policy: increase the stage count while the critical path
// model says the clock period still exceeds the target and the marginal
// stage still buys a significant reduction; retime registers to balance
// stage delays at each step.
func PipelinePE(spec *pe.Spec, m *tech.Model, opt Options) *PipelinedPE {
	opt = opt.withDefaults()
	best := Retime(spec, m, 0)
	plateau := 0
	for s := 1; s <= maxStages && best.PeriodPS > tech.ClockPeriodPS; s++ {
		next := Retime(spec, m, s)
		gain := (best.PeriodPS - next.PeriodPS) / best.PeriodPS
		if next.PeriodPS < best.PeriodPS {
			best = next
		}
		if gain < opt.MinGain {
			// One plateau stage is tolerated (an odd split may not help
			// until the next boundary); two in a row means the datapath
			// cannot be cut any finer.
			plateau++
			if plateau >= 2 {
				break
			}
			continue
		}
		plateau = 0
	}
	return best
}

// Retime assigns datapath units to stages+1 pipeline bins minimizing the
// maximum intra-stage path delay (the classic DAG retiming formulation:
// binary search on the period, greedy stage assignment as feasibility
// check).
func Retime(spec *pe.Spec, m *tech.Model, stages int) *PipelinedPE {
	order, preds := unitDAG(spec)
	delays := unitDelays(spec, m)

	assign := func(period float64) ([]int, float64, int) {
		stageOf := make([]int, len(spec.DP.Units))
		arrive := make([]float64, len(spec.DP.Units)) // intra-stage arrival
		worst := 0.0
		maxStage := 0
		for _, u := range order {
			st, ar := 0, 0.0
			for _, p := range preds[u] {
				ps, pa := stageOf[p], arrive[p]
				switch {
				case ps > st:
					st, ar = ps, pa
				case ps == st && pa > ar:
					ar = pa
				}
			}
			if ar+delays[u] > period && ar > 0 {
				st++
				ar = 0
			}
			stageOf[u] = st
			arrive[u] = ar + delays[u]
			if arrive[u] > worst {
				worst = arrive[u]
			}
			if st > maxStage {
				maxStage = st
			}
		}
		return stageOf, worst, maxStage
	}

	if stages == 0 {
		stageOf, worst, _ := assign(math.Inf(1))
		return &PipelinedPE{Spec: spec, Stages: 0, PeriodPS: worst, StageOf: stageOf}
	}

	// Binary search the smallest period achievable within the stage
	// budget.
	lo, hi := 0.0, 0.0
	for u := range delays {
		if delays[u] > lo {
			lo = delays[u]
		}
	}
	_, hi, _ = assign(math.Inf(1))
	for iter := 0; iter < 24; iter++ {
		mid := (lo + hi) / 2
		if _, _, s := assign(mid); s <= stages {
			hi = mid
		} else {
			lo = mid
		}
	}
	stageOf, worst, maxStage := assign(hi)
	// Count registers on stage-crossing unit outputs.
	regs := 0
	for _, u := range order {
		crossed := 0
		for _, w := range spec.DP.Wires {
			if w.From != u {
				continue
			}
			if d := stageOf[w.To] - stageOf[u]; d > crossed {
				crossed = d
			}
		}
		regs += crossed
	}
	return &PipelinedPE{
		Spec:      spec,
		Stages:    maxStage,
		PeriodPS:  worst,
		StageOf:   stageOf,
		ExtraRegs: regs,
	}
}

// Area returns the pipelined PE's core area: the datapath plus retiming
// registers.
func (p *PipelinedPE) Area(m *tech.Model) float64 {
	return p.Spec.Area(m) + float64(p.ExtraRegs)*m.Unit("reg16").Area
}

// unitDAG orders datapath units topologically (by longest-path level,
// skipping cycle-closing edges) and returns each unit's predecessors.
func unitDAG(spec *pe.Spec) (order []int, preds [][]int) {
	n := len(spec.DP.Units)
	preds = make([][]int, n)
	succ := make([][]int, n)
	for _, w := range spec.DP.Wires {
		succ[w.From] = append(succ[w.From], w.To)
	}
	// DFS finishing order gives a reverse topological order when cycle
	// edges are skipped.
	state := make([]uint8, n)
	var fin []int
	var visit func(u int)
	visit = func(u int) {
		if state[u] != 0 {
			return
		}
		state[u] = 1
		for _, v := range succ[u] {
			if state[v] == 1 {
				continue // cycle-closing edge: skip
			}
			visit(v)
		}
		state[u] = 2
		fin = append(fin, u)
	}
	for u := 0; u < n; u++ {
		visit(u)
	}
	order = make([]int, n)
	pos := make([]int, n)
	for i := range fin {
		order[n-1-i] = fin[i]
	}
	for i, u := range order {
		pos[u] = i
	}
	for _, w := range spec.DP.Wires {
		if pos[w.From] < pos[w.To] { // forward edges only
			preds[w.To] = append(preds[w.To], w.From)
		}
	}
	for u := range preds {
		sort.Ints(preds[u])
	}
	return order, preds
}

func unitDelays(spec *pe.Spec, m *tech.Model) []float64 {
	delays := make([]float64, len(spec.DP.Units))
	muxD := m.Unit("mux16").Delay
	fanin := map[[2]int]int{}
	for _, w := range spec.DP.Wires {
		fanin[[2]int{w.To, w.Port}]++
	}
	for u, unit := range spec.DP.Units {
		if unit.Kind != merge.UnitOp {
			continue
		}
		d := 0.0
		for _, op := range unit.Ops {
			if cl := op.HWClass(); cl != "" {
				if cd := m.HWClassCost(cl).Delay; cd > d {
					d = cd
				}
			}
		}
		// Account for the operand muxes in front of the unit.
		hasMux := false
		for p := 0; p < unit.MaxPorts(); p++ {
			if fanin[[2]int{u, p}] > 1 {
				hasMux = true
			}
		}
		if hasMux {
			d += muxD
		}
		delays[u] = d
	}
	return delays
}
