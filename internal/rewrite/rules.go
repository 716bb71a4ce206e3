package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/pe"
)

// SingleOpPatterns builds the rewrite-rule patterns for individual
// operations: the plain form with live operands, plus constant-operand
// variants (the paper's Fig. 2c optimization — constant operands come from
// configuration-time constant registers rather than interconnect inputs).
func SingleOpPatterns(ops []ir.Op) []NamedPattern {
	var pats []NamedPattern
	add := func(name string, build func(g *ir.Graph) ir.NodeRef) {
		g := ir.NewGraph(name)
		root := build(g)
		g.Output("o", root)
		pats = append(pats, NamedPattern{Name: name, Graph: g})
	}
	for _, op := range ops {
		op := op
		switch op.Arity() {
		case 1:
			add(op.Name(), func(g *ir.Graph) ir.NodeRef {
				return g.OpNode(op, g.Input("x"))
			})
		case 2:
			add(op.Name(), func(g *ir.Graph) ir.NodeRef {
				return g.OpNode(op, g.Input("x"), g.Input("y"))
			})
			add(op.Name()+"_c1", func(g *ir.Graph) ir.NodeRef {
				return g.OpNode(op, g.Input("x"), g.Const(0))
			})
			if !op.Commutative() {
				add(op.Name()+"_c0", func(g *ir.Graph) ir.NodeRef {
					return g.OpNode(op, g.Const(0), g.Input("x"))
				})
			}
		case 3:
			if op == ir.OpSel {
				add("sel", func(g *ir.Graph) ir.NodeRef {
					return g.OpNode(op, g.InputB("c"), g.Input("x"), g.Input("y"))
				})
				add("sel_c1", func(g *ir.Graph) ir.NodeRef {
					return g.OpNode(op, g.InputB("c"), g.Input("x"), g.Const(0))
				})
				add("sel_c2", func(g *ir.Graph) ir.NodeRef {
					return g.OpNode(op, g.InputB("c"), g.Const(0), g.Input("x"))
				})
				add("sel_c12", func(g *ir.Graph) ir.NodeRef {
					return g.OpNode(op, g.InputB("c"), g.Const(0), g.Const(0))
				})
			}
			if op == ir.OpLUT {
				add("lut", func(g *ir.Graph) ir.NodeRef {
					return g.LUT(0, g.InputB("a"), g.InputB("b"), g.InputB("c"))
				})
				add("lut_c2", func(g *ir.Graph) ir.NodeRef {
					return g.LUT(0, g.InputB("a"), g.InputB("b"), g.ConstB(false))
				})
			}
		}
	}
	return pats
}

// NamedPattern pairs a pattern graph with a rule name.
type NamedPattern struct {
	Name  string
	Graph *ir.Graph
}

// PatternFromMined converts a mined labeled pattern into a named IR
// pattern ready for rule synthesis.
func PatternFromMined(p *graph.Graph, name string) (NamedPattern, error) {
	g, err := ir.FromLabeled(p)
	if err != nil {
		return NamedPattern{}, err
	}
	if len(g.Outputs()) != 1 {
		return NamedPattern{}, fmt.Errorf("rewrite: mined pattern %s has %d roots; rules are single-output", name, len(g.Outputs()))
	}
	return NamedPattern{Name: name, Graph: g}, nil
}

// RuleSet is the synthesized compiler for one PE: every rule the
// instruction selector may apply, sorted complex-first.
type RuleSet struct {
	Spec  *pe.Spec
	Rules []*Rule
	// Failed lists pattern names the PE could not implement.
	Failed []string
}

// ConstVariants expands a complex pattern into itself plus every variant
// that replaces a subset of its word inputs with constant parameters.
// Constant operands bind to PE constant registers instead of fabric
// inputs (the paper's Fig. 2c input reduction), so a variant applies at
// application sites where the plain pattern cannot — the interconnect
// does not route constants.
func ConstVariants(np NamedPattern) []NamedPattern {
	var wordInputs []ir.NodeRef
	for i, n := range np.Graph.Nodes {
		if n.Op == ir.OpInput {
			wordInputs = append(wordInputs, ir.NodeRef(i))
		}
	}
	out := []NamedPattern{np}
	if len(wordInputs) == 0 || len(wordInputs) > 6 {
		return out
	}
	for mask := 1; mask < 1<<len(wordInputs); mask++ {
		g := np.Graph.Clone()
		for b, ref := range wordInputs {
			if mask&(1<<b) != 0 {
				g.Nodes[ref] = ir.Node{Op: ir.OpConst}
			}
		}
		out = append(out, NamedPattern{Name: fmt.Sprintf("%s_cv%d", np.Name, mask), Graph: g})
	}
	return out
}

// RulePatterns lists the patterns SynthesizeRuleSet synthesizes rules
// for, in order: each complex mined pattern followed by its
// constant-operand variants, then the single-op patterns for ops. A name
// that repeats an earlier one is listed but not synthesized.
func RulePatterns(complex []NamedPattern, ops []ir.Op) []NamedPattern {
	var all []NamedPattern
	for _, np := range complex {
		all = append(all, ConstVariants(np)...)
	}
	return append(all, SingleOpPatterns(ops)...)
}

// SynthesizeRuleSet synthesizes rules for every given pattern (complex
// mined patterns and their constant-operand variants first, then the
// single-op patterns for ops). Patterns the PE cannot implement are
// recorded in Failed rather than failing the set: a specialized PE
// legitimately lacks rules for operations its applications do not use,
// and a merged PE may lack the constant registers some variants need.
func SynthesizeRuleSet(spec *pe.Spec, complex []NamedPattern, ops []ir.Op) (*RuleSet, error) {
	return BuildRuleSet(spec, RulePatterns(complex, ops), func(np NamedPattern) (*Rule, error) {
		return SynthesizeRule(spec, np.Graph, np.Name)
	})
}

// BuildRuleSet is SynthesizeRuleSet over a RulePatterns list, with
// synth standing in for SynthesizeRule on spec: it returns the rule for
// a pattern, or nil when spec cannot implement it.
func BuildRuleSet(spec *pe.Spec, pats []NamedPattern, synth func(NamedPattern) (*Rule, error)) (*RuleSet, error) {
	rs := &RuleSet{Spec: spec}
	seen := map[string]bool{}
	for _, np := range pats {
		if seen[np.Name] {
			continue
		}
		seen[np.Name] = true
		rule, err := synth(np)
		if err != nil {
			return nil, fmt.Errorf("rewrite: pattern %s: %w", np.Name, err)
		}
		if rule == nil {
			rs.Failed = append(rs.Failed, np.Name)
			continue
		}
		rs.Rules = append(rs.Rules, rule)
	}
	rs.sort()
	return rs, nil
}

// sort orders the rules complex-first; among equals, fewer PE inputs
// first (cheaper interconnect), then by name for determinism.
func (rs *RuleSet) sort() {
	sort.SliceStable(rs.Rules, func(i, j int) bool {
		a, b := rs.Rules[i], rs.Rules[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		ai, bi := len(a.InputPorts)+len(a.BitPorts), len(b.InputPorts)+len(b.BitPorts)
		if ai != bi {
			return ai < bi
		}
		return a.Name < b.Name
	})
}

// SupportsOp reports whether the rule set has a plain rule for op.
func (rs *RuleSet) SupportsOp(op ir.Op) bool {
	for _, r := range rs.Rules {
		if r.Size == 1 && len(r.Ops) == 1 && r.Ops[0] == op {
			return true
		}
	}
	return false
}
