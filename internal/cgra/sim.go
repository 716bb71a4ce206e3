package cgra

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/rewrite"
)

// Simulate runs a cycle-accurate functional simulation of the mapped
// (and typically balanced) design — the role Synopsys VCS plays in the
// paper's flow. PEs are combinational followed by peLatency pipeline
// stages; memory tiles delay one cycle; interconnect registers one
// cycle; register-file FIFOs their depth. inputs[name][t] is the value
// of the named input at cycle t (held at its last value afterwards).
// The result maps each output name to its per-cycle trace. Cancellation
// of ctx aborts between cycles with fault.ErrCanceled.
func Simulate(ctx context.Context, m *rewrite.Mapped, peLatency int, inputs map[string][]uint16, cycles int) (map[string][]uint16, error) {
	_, span := obs.StartSpan(ctx, "sim", obs.Int("cycles", cycles), obs.Int("nodes", len(m.Nodes)))
	defer span.End()
	type delayLine struct {
		buf []uint16
	}
	lines := make([]*delayLine, len(m.Nodes))
	latency := func(n *rewrite.MNode) int {
		switch n.Kind {
		case rewrite.KindPE:
			return peLatency
		case rewrite.KindMem, rewrite.KindRom:
			return 1
		case rewrite.KindReg:
			return 1
		case rewrite.KindRegFile:
			return n.Depth
		default:
			return 0
		}
	}
	for i := range m.Nodes {
		if l := latency(&m.Nodes[i]); l > 0 {
			lines[i] = &delayLine{buf: make([]uint16, l)}
		}
	}
	order := m.TopoOrder()
	vals := make([]uint16, len(m.Nodes))
	progs := make([]*rewrite.PEProgram, len(m.Nodes))
	outs := map[string][]uint16{}
	for i := range m.Nodes {
		if m.Nodes[i].Kind == rewrite.KindOutput {
			outs[m.Nodes[i].Name] = make([]uint16, 0, cycles)
		}
	}
	at := func(stream []uint16, t int) uint16 {
		if len(stream) == 0 {
			return 0
		}
		if t >= len(stream) {
			return stream[len(stream)-1]
		}
		return stream[t]
	}
	for t := 0; t < cycles; t++ {
		if t&255 == 0 {
			if err := fault.Canceled(ctx); err != nil {
				return nil, err
			}
		}
		for _, i := range order {
			n := &m.Nodes[i]
			var comb uint16
			switch n.Kind {
			case rewrite.KindInput:
				comb = at(inputs[n.Name], t)
			case rewrite.KindInputB:
				comb = at(inputs[n.Name], t) & 1
			case rewrite.KindMem, rewrite.KindReg, rewrite.KindRegFile:
				comb = vals[n.Arg]
			case rewrite.KindRom:
				comb = ir.EvalOp(ir.OpRom, []uint16{vals[n.Arg]}, n.Val)
				// ROM lookup result enters the delay line below.
			case rewrite.KindOutput:
				vals[i] = n.Val
				if n.Arg >= 0 {
					vals[i] = vals[n.Arg]
				}
				continue
			case rewrite.KindPE:
				// Each PE compiles once, on its first evaluation, and
				// runs allocation-free every cycle after.
				if progs[i] == nil {
					pp, err := n.CompilePE(m.Spec)
					if err != nil {
						return nil, fmt.Errorf("cgra: simulate PE %d: %w", i, err)
					}
					progs[i] = pp
				}
				comb = progs[i].Eval(vals)
			}
			if l := lines[i]; l != nil {
				out := l.buf[0]
				copy(l.buf, l.buf[1:])
				l.buf[len(l.buf)-1] = comb
				vals[i] = out
			} else {
				vals[i] = comb
			}
		}
		for i := range m.Nodes {
			if m.Nodes[i].Kind == rewrite.KindOutput {
				outs[m.Nodes[i].Name] = append(outs[m.Nodes[i].Name], vals[i])
			}
		}
	}
	return outs, nil
}

// OutputLatencies computes, per output name, the cycle latency from
// inputs under the given PE latency, assuming a balanced design (all
// paths to each node agree).
func OutputLatencies(m *rewrite.Mapped, peLatency int) map[string]int {
	lat := make([]int, len(m.Nodes))
	res := map[string]int{}
	for _, i := range m.TopoOrder() {
		n := &m.Nodes[i]
		in := 0
		for _, p := range n.Producers() {
			if lat[p] > in {
				in = lat[p]
			}
		}
		own := 0
		switch n.Kind {
		case rewrite.KindPE:
			own = peLatency
		case rewrite.KindMem, rewrite.KindRom, rewrite.KindReg:
			own = 1
		case rewrite.KindRegFile:
			own = n.Depth
		}
		lat[i] = in + own
		if n.Kind == rewrite.KindOutput {
			res[n.Name] = lat[i]
		}
	}
	return res
}
