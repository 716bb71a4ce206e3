// Package pe turns merged datapaths into processing element
// specifications — the role the PEak DSL plays in the APEX paper. A Spec
// carries the datapath structure, its configuration space (operand mux
// selects, operation selects, constant registers), a functional model
// (Evaluate), and a formal model (SymbolicEval over canonical
// expressions). The rewrite-rule synthesizer in internal/rewrite uses the
// formal model to prove that a configuration implements an operation.
package pe

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/tech"
)

// Spec is a complete PE specification derived from a merged datapath.
type Spec struct {
	Name string
	DP   *merge.Datapath

	// Inputs, InputsB, Consts, Outputs list unit indices by role, in
	// ascending order. Their positions define the PE's port numbering:
	// data input k of the PE is unit Inputs[k].
	Inputs  []int
	InputsB []int
	Consts  []int
	Outputs []int
	// FUs lists functional unit indices in ascending order.
	FUs []int

	// portSources[(unit,port)] lists candidate source units.
	portSources map[[2]int][]int
	// muxFanin counts the extra mux inputs over all ports (sources
	// beyond the first): merge.Datapath.Count's MuxFanin, counted once.
	muxFanin int
}

// FromDatapath builds a Spec from a merged datapath.
func FromDatapath(name string, dp *merge.Datapath) *Spec {
	s := &Spec{Name: name, DP: dp, portSources: map[[2]int][]int{}}
	for i, u := range dp.Units {
		switch u.Kind {
		case merge.UnitInput:
			s.Inputs = append(s.Inputs, i)
		case merge.UnitInputB:
			s.InputsB = append(s.InputsB, i)
		case merge.UnitConst:
			s.Consts = append(s.Consts, i)
		case merge.UnitOutput:
			s.Outputs = append(s.Outputs, i)
		case merge.UnitOp:
			s.FUs = append(s.FUs, i)
		}
	}
	for _, w := range dp.Wires {
		k := [2]int{w.To, w.Port}
		s.portSources[k] = append(s.portSources[k], w.From)
	}
	for _, srcs := range s.portSources {
		sort.Ints(srcs)
		s.muxFanin += len(srcs) - 1
	}
	return s
}

// PortSources returns the candidate sources for (unit, port).
func (s *Spec) PortSources(unit, port int) []int { return s.portSources[[2]int{unit, port}] }

// NumDataInputs returns the number of 16-bit PE inputs (which is also the
// number of 16-bit connection boxes the PE tile needs).
func (s *Spec) NumDataInputs() int { return len(s.Inputs) }

// NumBitInputs returns the number of 1-bit PE inputs.
func (s *Spec) NumBitInputs() int { return len(s.InputsB) }

// Area returns the PE core area under the technology model.
func (s *Spec) Area(m *tech.Model) float64 { return s.DP.Area(m) }

// Config is one configuration of the PE: a point in its control space.
type Config struct {
	// PortSel maps (unit, port) to the selected source unit. Ports not in
	// the map are unconfigured (their unit is inactive).
	PortSel map[[2]int]int
	// OpSel maps a functional unit index to its selected operation.
	OpSel map[int]ir.Op
	// ConstVals maps a constant unit index to its register value.
	ConstVals map[int]uint16
	// OutSel maps an output unit index to the unit driving it.
	OutSel map[int]int
}

// NewConfig returns an empty configuration.
func NewConfig() Config {
	return Config{
		PortSel:   map[[2]int]int{},
		OpSel:     map[int]ir.Op{},
		ConstVals: map[int]uint16{},
		OutSel:    map[int]int{},
	}
}

// Clone deep-copies a configuration.
func (c Config) Clone() Config {
	n := NewConfig()
	for k, v := range c.PortSel {
		n.PortSel[k] = v
	}
	for k, v := range c.OpSel {
		n.OpSel[k] = v
	}
	for k, v := range c.ConstVals {
		n.ConstVals[k] = v
	}
	for k, v := range c.OutSel {
		n.OutSel[k] = v
	}
	return n
}

// Validate checks that every configured selection is a legal wire/op.
func (s *Spec) Validate(c Config) error {
	for k, src := range c.PortSel {
		legal := false
		for _, cand := range s.PortSources(k[0], k[1]) {
			if cand == src {
				legal = true
				break
			}
		}
		if !legal {
			return fmt.Errorf("pe: illegal port selection unit %d port %d <- %d", k[0], k[1], src)
		}
	}
	for u, op := range c.OpSel {
		if u < 0 || u >= len(s.DP.Units) || !s.DP.Units[u].SupportsOp(op) {
			return fmt.Errorf("pe: unit %d cannot execute %s", u, op)
		}
	}
	for out, src := range c.OutSel {
		legal := false
		for _, cand := range s.PortSources(out, 0) {
			if cand == src {
				legal = true
				break
			}
		}
		if !legal {
			return fmt.Errorf("pe: illegal output selection %d <- %d", out, src)
		}
	}
	return nil
}

// Evaluate runs the functional model: inputVals maps PE data-input
// position to its value, bitVals maps PE bit-input position to its value.
// The result maps output unit index to the computed word. It compiles
// the configuration for one run; callers that evaluate one configuration
// on many vectors should Compile once and Run per vector.
func (s *Spec) Evaluate(c Config, inputVals map[int]uint16, bitVals map[int]uint16) (map[int]uint16, error) {
	p, err := s.Compile(c)
	if err != nil {
		return nil, err
	}
	p.Run(positional(inputVals, len(s.Inputs)), positional(bitVals, len(s.InputsB)))
	outs := make(map[int]uint16, len(p.Outputs))
	for _, o := range p.Outputs {
		outs[o] = p.Out(o)
	}
	return outs, nil
}

// positional spreads a position-keyed map over a slice of n positions.
func positional(m map[int]uint16, n int) []uint16 {
	xs := make([]uint16, n)
	for pos, v := range m {
		if pos >= 0 && pos < n {
			xs[pos] = v
		}
	}
	return xs
}

// SymbolicEval computes the canonical expression of each configured
// output. Data input k appears as Var("in<k>"), bit input k as
// Var("inb<k>"), and constant unit u as Var("c<u>") unless the
// configuration pins its value (then the constant folds in).
func (s *Spec) SymbolicEval(c Config, pinConsts bool) (map[int]*ir.Expr, error) {
	memo := map[int]*ir.Expr{}
	state := map[int]uint8{}
	var eval func(u int) (*ir.Expr, error)
	eval = func(u int) (*ir.Expr, error) {
		if state[u] == 2 {
			return memo[u], nil
		}
		if state[u] == 1 {
			return nil, fmt.Errorf("pe: combinational cycle at unit %d", u)
		}
		state[u] = 1
		unit := &s.DP.Units[u]
		var e *ir.Expr
		switch unit.Kind {
		case merge.UnitInput:
			e = ir.Var(fmt.Sprintf("in%d", indexOf(s.Inputs, u)))
		case merge.UnitInputB:
			e = ir.Var(fmt.Sprintf("inb%d", indexOf(s.InputsB, u)))
		case merge.UnitConst:
			if v, ok := c.ConstVals[u]; ok && pinConsts {
				e = ir.ConstExpr(v)
			} else {
				e = ir.Var(fmt.Sprintf("c%d", u))
			}
		case merge.UnitOp:
			op, ok := c.OpSel[u]
			if !ok {
				if len(unit.Ops) == 1 {
					op = unit.Ops[0]
				} else {
					return nil, fmt.Errorf("pe: unit %d has no op selected", u)
				}
			}
			args := make([]*ir.Expr, op.Arity())
			for p := 0; p < op.Arity(); p++ {
				src, ok := c.PortSel[[2]int{u, p}]
				if !ok {
					return nil, fmt.Errorf("pe: unit %d port %d unconfigured", u, p)
				}
				ae, err := eval(src)
				if err != nil {
					return nil, err
				}
				args[p] = ae
			}
			e = ir.Apply(op, c.ConstVals[u], args...)
		case merge.UnitOutput:
			src, ok := c.OutSel[u]
			if !ok {
				return nil, fmt.Errorf("pe: output %d unconfigured", u)
			}
			se, err := eval(src)
			if err != nil {
				return nil, err
			}
			e = se
		}
		memo[u] = e
		state[u] = 2
		return e, nil
	}
	outs := map[int]*ir.Expr{}
	for _, o := range s.Outputs {
		if _, ok := c.OutSel[o]; !ok {
			continue
		}
		e, err := eval(o)
		if err != nil {
			return nil, err
		}
		outs[o] = e
	}
	return outs, nil
}

// ConfigBits returns the size of the PE's configuration word.
func (s *Spec) ConfigBits() int {
	bits := 0
	for _, srcs := range s.portSources {
		if len(srcs) > 1 {
			bits += bitsFor(len(srcs))
		}
	}
	for _, f := range s.FUs {
		if n := len(s.DP.Units[f].Ops); n > 1 {
			bits += bitsFor(n)
		}
		for _, op := range s.DP.Units[f].Ops {
			if op == ir.OpLUT {
				bits += 8 // truth table
				break
			}
		}
	}
	for _, cu := range s.Consts {
		if s.DP.Units[cu].Bit {
			bits++
		} else {
			bits += 16
		}
	}
	return bits
}

func bitsFor(n int) int {
	b := 0
	for (1 << b) < n {
		b++
	}
	return b
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
