package pe

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/merge"
)

// Program is one configuration of a PE lowered to straight-line code:
// the units the configured outputs reach, one step each, in dependency
// order. Compile does the configuration checks once; Run then evaluates
// an input vector with no maps and no allocation. Spec.Evaluate is
// Compile followed by Run, so the functional model has one
// implementation.
type Program struct {
	// Consts holds each unit's configuration word, indexed by unit: the
	// register value of a constant unit, the immediate (LUT table) of a
	// functional unit. Compile fills it from Config.ConstVals; a caller
	// may overwrite entries between runs to rebind constants.
	Consts []uint16
	// Outputs lists the configured output units in ascending order.
	Outputs []int

	steps []step
	vals  []uint16 // per-unit values of the last Run
}

type stepKind uint8

const (
	stepInput stepKind = iota
	stepInputB
	stepConst
	stepOp
	stepOutput
)

// step computes one unit: an input reads its port position, a constant
// its register, a functional unit applies op to its n operand units, and
// an output copies its source unit (args[0]).
type step struct {
	kind stepKind
	bit  bool // 1-bit constant register
	op   ir.Op
	n    uint8
	unit int32
	pos  int32
	args [3]int32
}

// compiler is the lowering's DFS state: 1 = in progress, 2 = emitted.
type compiler struct {
	s     *Spec
	c     Config
	state []uint8
	steps []step
}

// Compile lowers configuration c to a Program. It visits exactly the
// units the functional model evaluates, in the same order, so it reports
// the same errors: a combinational cycle, a functional unit with no op
// selected, an unconfigured operand port, an unconfigured output.
func (s *Spec) Compile(c Config) (*Program, error) {
	n := len(s.DP.Units)
	words := make([]uint16, 2*n)
	p := &Program{Consts: words[:n:n], vals: words[n:]}
	for u, v := range c.ConstVals {
		if u >= 0 && u < n {
			p.Consts[u] = v
		}
	}
	cm := &compiler{s: s, c: c, state: make([]uint8, n), steps: make([]step, 0, n)}
	for _, o := range s.Outputs {
		if _, ok := c.OutSel[o]; !ok {
			continue // unconfigured outputs are idle
		}
		if err := cm.visit(o); err != nil {
			return nil, err
		}
		p.Outputs = append(p.Outputs, o)
	}
	p.steps = cm.steps
	return p, nil
}

// visit emits unit u after everything it reads.
func (cm *compiler) visit(u int) error {
	switch cm.state[u] {
	case 2:
		return nil
	case 1:
		return fmt.Errorf("pe: configured datapath has a combinational cycle at unit %d", u)
	}
	cm.state[u] = 1
	unit := &cm.s.DP.Units[u]
	st := step{unit: int32(u)}
	switch unit.Kind {
	case merge.UnitInput:
		st.kind, st.pos = stepInput, int32(indexOf(cm.s.Inputs, u))
	case merge.UnitInputB:
		st.kind, st.pos = stepInputB, int32(indexOf(cm.s.InputsB, u))
	case merge.UnitConst:
		st.kind, st.bit = stepConst, unit.Bit
	case merge.UnitOp:
		op, ok := cm.c.OpSel[u]
		if !ok {
			if len(unit.Ops) != 1 {
				return fmt.Errorf("pe: unit %d (%s) has no op selected", u, unit)
			}
			op = unit.Ops[0]
		}
		st.kind, st.op, st.n = stepOp, op, uint8(op.Arity())
		// Operand ports beyond the op's arity are ignored; the op
		// consumes its operands from the low ports.
		for port := 0; port < op.Arity(); port++ {
			src, ok := cm.c.PortSel[[2]int{u, port}]
			if !ok {
				return fmt.Errorf("pe: unit %d port %d unconfigured", u, port)
			}
			if err := cm.visit(src); err != nil {
				return err
			}
			st.args[port] = int32(src)
		}
	case merge.UnitOutput:
		src, ok := cm.c.OutSel[u]
		if !ok {
			return fmt.Errorf("pe: output %d unconfigured", u)
		}
		if err := cm.visit(src); err != nil {
			return err
		}
		st.kind, st.args[0] = stepOutput, int32(src)
	default:
		cm.state[u] = 2 // no step: the unit reads as zero
		return nil
	}
	cm.steps = append(cm.steps, st)
	cm.state[u] = 2
	return nil
}

// Run evaluates the program on one vector: data input k reads inputs[k]
// and bit input k reads bits[k] (positions past a slice's end read
// zero). Run allocates nothing.
func (p *Program) Run(inputs, bits []uint16) {
	vals := p.vals
	for i := range p.steps {
		st := &p.steps[i]
		var v uint16
		switch st.kind {
		case stepInput:
			if int(st.pos) < len(inputs) {
				v = inputs[st.pos]
			}
		case stepInputB:
			if int(st.pos) < len(bits) {
				v = bits[st.pos] & 1
			}
		case stepConst:
			v = p.Consts[st.unit]
			if st.bit {
				v &= 1
			}
		case stepOp:
			var args [3]uint16
			for j := uint8(0); j < st.n; j++ {
				args[j] = vals[st.args[j]]
			}
			v = ir.EvalOp(st.op, args[:st.n], p.Consts[st.unit])
		case stepOutput:
			v = vals[st.args[0]]
		}
		vals[st.unit] = v
	}
}

// Out returns the value unit u computed in the last Run.
func (p *Program) Out(u int) uint16 { return p.vals[u] }
