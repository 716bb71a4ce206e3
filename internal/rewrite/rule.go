// Package rewrite implements compiler generation for APEX PEs: rewrite
// rule synthesis (paper Section 4.1.1) and instruction selection (Section
// 4.1.2).
//
// The paper synthesizes rules with an SMT query (does a configuration x
// exist such that for all inputs y, PE(x, y) = Op(y)?) solved by
// Boolector. This reproduction decides the same question by structural
// search over the finite configuration space — match the operation pattern
// onto the datapath respecting unit classes, ports, and wires — and then
// *proves* the found configuration correct on the PE's formal model:
// the canonical symbolic expression of the configured datapath must equal
// the pattern's, and randomized simulation cross-checks the functional
// model. Both sides of the paper's flow (existence search + semantic
// proof) are preserved; only the proof engine differs.
package rewrite

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
)

// Rule is a synthesized rewrite rule: how to configure the PE to execute
// one operation pattern.
type Rule struct {
	Name    string
	Spec    *pe.Spec
	Pattern *ir.Graph
	Root    ir.NodeRef
	// Config holds port/op/output selections. Constant unit values are
	// bound per application site (pattern constants are parameters).
	Config pe.Config
	// InputPorts maps pattern input nodes to PE data-input positions;
	// BitPorts maps pattern 1-bit inputs to PE bit-input positions.
	InputPorts map[ir.NodeRef]int
	BitPorts   map[ir.NodeRef]int
	// ConstRegs maps pattern constant nodes to constant unit indices.
	ConstRegs map[ir.NodeRef]int
	// LUTUnits maps pattern LUT nodes to their functional units; the LUT
	// truth table is a per-site parameter like constant values.
	LUTUnits map[ir.NodeRef]int
	// OutUnit is the PE output unit carrying the result.
	OutUnit int
	// Ops lists the operations the rule exercises (for energy roll-ups).
	Ops []ir.Op
	// Size is the number of compute nodes covered (mapping priority).
	Size int
}

// String renders a compact description.
func (r *Rule) String() string {
	return fmt.Sprintf("rule %s (size %d, %d inputs)", r.Name, r.Size, len(r.InputPorts))
}

// patternRoot finds the single result node of a pattern graph: the node
// feeding its first output.
func patternRoot(g *ir.Graph) (ir.NodeRef, error) {
	outs := g.Outputs()
	if len(outs) == 0 {
		return -1, fmt.Errorf("rewrite: pattern has no output")
	}
	if len(outs) > 1 {
		return -1, fmt.Errorf("rewrite: pattern has %d outputs; rules are single-output", len(outs))
	}
	return g.Nodes[outs[0]].Args[0], nil
}

// SynthesizeRule searches the PE configuration space for an implementation
// of the pattern; it returns nil (no error) when the PE cannot implement
// the pattern. The search is complete over the structural configuration
// space: it backtracks through every consistent assignment of pattern
// nodes to units and operands to wires (continuation-passing, so interior
// choices are revisited when later constraints fail), and the final
// verification runs inside the search — a configuration that matches
// structurally but fails the formal check sends the search onward.
func SynthesizeRule(spec *pe.Spec, pattern *ir.Graph, name string) (*Rule, error) {
	root, err := patternRoot(pattern)
	if err != nil {
		return nil, err
	}
	st := &synthState{
		spec:      spec,
		pat:       pattern,
		mapFU:     map[ir.NodeRef]int{},
		usedFU:    map[int]bool{},
		mapConst:  map[ir.NodeRef]int{},
		usedConst: map[int]bool{},
		mapIn:     map[ir.NodeRef]int{},
		usedIn:    map[int]bool{},
		portSel:   map[[2]int]int{},
	}
	var found *Rule
	// The root must reach some output unit.
	for _, out := range spec.Outputs {
		for _, drv := range spec.PortSources(out, 0) {
			out, drv := out, drv
			ok := st.bind(root, drv, func() bool {
				rule, ok := st.finish(name, root, out, drv)
				if ok {
					found = rule
				}
				return ok
			})
			if ok {
				return found, nil
			}
			if st.steps > maxSynthSteps {
				return nil, nil // budget exhausted; treat as not implementable
			}
		}
	}
	return nil, nil
}

// maxSynthSteps bounds the structural search (generous: realistic
// patterns finish in far fewer steps).
const maxSynthSteps = 2_000_000

type synthState struct {
	spec      *pe.Spec
	pat       *ir.Graph
	mapFU     map[ir.NodeRef]int
	usedFU    map[int]bool
	mapConst  map[ir.NodeRef]int
	usedConst map[int]bool
	mapIn     map[ir.NodeRef]int // pattern input node -> unit index
	usedIn    map[int]bool
	portSel   map[[2]int]int
	steps     int
}

// bind tries to map pattern node v onto datapath unit u and then invokes
// cont; it explores every consistent way to bind v's operand subtree,
// calling cont for each, and undoes all bindings before returning false.
func (s *synthState) bind(v ir.NodeRef, u int, cont func() bool) bool {
	s.steps++
	if s.steps > maxSynthSteps {
		return false
	}
	n := &s.pat.Nodes[v]
	unit := &s.spec.DP.Units[u]

	bindLeaf := func(m map[ir.NodeRef]int, used map[int]bool) bool {
		if prev, ok := m[v]; ok {
			if prev != u {
				return false
			}
			return cont()
		}
		if used[u] {
			return false
		}
		m[v] = u
		used[u] = true
		if cont() {
			return true
		}
		delete(m, v)
		delete(used, u)
		return false
	}

	switch n.Op {
	case ir.OpConst:
		if unit.Kind != merge.UnitConst || unit.Bit {
			return false
		}
		return bindLeaf(s.mapConst, s.usedConst)
	case ir.OpConstB:
		if unit.Kind != merge.UnitConst || !unit.Bit {
			return false
		}
		return bindLeaf(s.mapConst, s.usedConst)
	case ir.OpInput:
		if unit.Kind != merge.UnitInput {
			return false
		}
		return bindLeaf(s.mapIn, s.usedIn)
	case ir.OpInputB:
		if unit.Kind != merge.UnitInputB {
			return false
		}
		return bindLeaf(s.mapIn, s.usedIn)
	}
	if !n.Op.IsCompute() {
		return false
	}
	if unit.Kind != merge.UnitOp || !unit.SupportsOp(n.Op) {
		return false
	}
	if prev, ok := s.mapFU[v]; ok {
		if prev != u {
			return false
		}
		return cont()
	}
	if s.usedFU[u] {
		return false
	}
	s.mapFU[v] = u
	s.usedFU[u] = true

	// Operand orders to try: identity, plus the swap for commutative
	// 2-operand ops.
	if s.bindArgs(v, u, false, 0, cont) {
		return true
	}
	if n.Op.Commutative() && len(n.Args) == 2 && s.bindArgs(v, u, true, 0, cont) {
		return true
	}
	delete(s.mapFU, v)
	delete(s.usedFU, u)
	return false
}

// bindArgs assigns v's operands (swapped, for a commutative binary op,
// when swap is set) starting at position p to wires feeding unit u,
// invoking cont when all are bound.
func (s *synthState) bindArgs(v ir.NodeRef, u int, swap bool, p int, cont func() bool) bool {
	n := &s.pat.Nodes[v]
	if p == len(n.Args) {
		return cont()
	}
	child := n.Args[p]
	if swap {
		child = n.Args[1-p]
	}
	key := [2]int{u, p}
	for _, src := range s.spec.PortSources(u, p) {
		if prev, had := s.portSel[key]; had && prev != src {
			continue
		}
		_, had := s.portSel[key]
		s.portSel[key] = src
		ok := s.bind(child, src, func() bool {
			return s.bindArgs(v, u, swap, p+1, cont)
		})
		if ok {
			return true
		}
		if !had {
			delete(s.portSel, key)
		}
	}
	return false
}

func copyRefRefIntMap(m map[ir.NodeRef]int) map[ir.NodeRef]int {
	c := make(map[ir.NodeRef]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// finish assembles and verifies the rule after a successful bind.
func (s *synthState) finish(name string, root ir.NodeRef, out, drv int) (*Rule, bool) {
	cfg := pe.NewConfig()
	for k, v := range s.portSel {
		cfg.PortSel[k] = v
	}
	var ops []ir.Op
	for v, u := range s.mapFU {
		op := s.pat.Nodes[v].Op
		cfg.OpSel[u] = op
		ops = append(ops, op)
		if op == ir.OpLUT {
			cfg.ConstVals[u] = s.pat.Nodes[v].Val
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	cfg.OutSel[out] = drv

	rule := &Rule{
		Name:       name,
		Spec:       s.spec,
		Pattern:    s.pat,
		Root:       root,
		Config:     cfg,
		InputPorts: map[ir.NodeRef]int{},
		BitPorts:   map[ir.NodeRef]int{},
		ConstRegs:  copyRefRefIntMap(s.mapConst),
		LUTUnits:   map[ir.NodeRef]int{},
		OutUnit:    out,
		Ops:        ops,
		Size:       len(s.mapFU),
	}
	for v, u := range s.mapFU {
		if s.pat.Nodes[v].Op == ir.OpLUT {
			rule.LUTUnits[v] = u
		}
	}
	for v, u := range s.mapIn {
		if s.pat.Nodes[v].Op == ir.OpInput {
			rule.InputPorts[v] = indexOf(s.spec.Inputs, u)
		} else {
			rule.BitPorts[v] = indexOf(s.spec.InputsB, u)
		}
	}
	if verifyRule(rule) != nil {
		return nil, false
	}
	return rule, true
}

// verifyRule proves the configuration implements the pattern: canonical
// symbolic equality on the formal model, then randomized simulation on
// the functional model.
func verifyRule(r *Rule) error {
	// Build the pattern's expression with the rule's naming: pattern
	// inputs become in<pos>/inb<pos>, pattern constants become c<unit>.
	rename := map[string]string{}
	for v, pos := range r.InputPorts {
		rename[r.Pattern.Nodes[v].Name] = fmt.Sprintf("in%d", pos)
	}
	for v, pos := range r.BitPorts {
		rename[r.Pattern.Nodes[v].Name] = fmt.Sprintf("inb%d", pos)
	}
	patExpr, err := patternExpr(r.Pattern, r.Root, rename, r.ConstRegs)
	if err != nil {
		return err
	}
	peExprs, err := r.Spec.SymbolicEval(r.Config, false)
	if err != nil {
		return err
	}
	peExpr := peExprs[r.OutUnit]
	if peExpr == nil {
		return fmt.Errorf("rewrite: configured PE produced no output expression")
	}
	if peExpr.Key() != patExpr.Key() {
		return fmt.Errorf("rewrite: formal mismatch: PE %s vs pattern %s", peExpr, patExpr)
	}
	// Randomized cross-check of the functional model.
	_, err = r.CrossCheck()
	return err
}

// CrossCheck runs the rule's randomized functional cross-check: on each
// of verifyTrials seeded vectors, the configured PE and the pattern must
// agree at the rule's output. It returns the index of the first failing
// trial and its error, or -1 and nil. Every call replays the same
// vectors.
func (r *Rule) CrossCheck() (int, error) {
	rng := &trialRand{}
	t := newRuleTrials(r)
	for trial := 0; trial < verifyTrials; trial++ {
		t.draw(rng)
		if err := t.check(); err != nil {
			return trial, err
		}
	}
	return -1, nil
}

// verifyTrials is the number of randomized functional cross-checks a
// rule must pass after its formal check.
const verifyTrials = 32

// trialSeed seeds the trial vectors. Every verification replays the same
// sequence, and seeding math/rand costs more than a rule's formal check,
// so the sequence's first trialPrefixLen values are generated once and
// shared read-only.
const (
	trialSeed      = 0xA9E5
	trialPrefixLen = 4096
)

var trialPrefix = sync.OnceValue(func() []int32 {
	rng := rand.New(rand.NewSource(trialSeed))
	p := make([]int32, trialPrefixLen)
	for i := range p {
		p[i] = rng.Int31()
	}
	return p
})

// trialRand replays rand.New(rand.NewSource(trialSeed)) from the start:
// intn(n) returns what that generator's Intn(n) would, for n a power of
// two (where Intn consumes exactly one Int31). Past the shared prefix it
// continues from a private generator advanced to the same point.
type trialRand struct {
	i   int
	rng *rand.Rand
}

func (r *trialRand) intn(n int32) uint16 {
	var x int32
	if p := trialPrefix(); r.i < len(p) {
		x = p[r.i]
	} else {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(trialSeed))
			for range p {
				r.rng.Int31()
			}
		}
		x = r.rng.Int31()
	}
	r.i++
	return uint16(x & (n - 1))
}

// portRef pairs a pattern node with its PE port position or unit.
type portRef struct {
	v   ir.NodeRef
	pos int
}

// sortedPorts lists a pattern-node-keyed port map in ascending pattern
// node order.
func sortedPorts(m map[ir.NodeRef]int) []portRef {
	ps := make([]portRef, 0, len(m))
	for v, pos := range m {
		ps = append(ps, portRef{v, pos})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	return ps
}

// ruleTrials is the randomized cross-check's state for one rule, built
// once and overwritten in place by every draw, so a trial allocates
// nothing: the configuration compiled to a PE program (LUT immediates
// included), the pattern's node order and per-node values, and the PE
// port vectors. Ports are drawn in ascending pattern-node order, so a
// fixed rule gets the same trial vectors in every run. Pattern inputs
// are bound by name, as Graph.Eval binds them: a drawn value reaches
// every pattern input of that name, and a later draw of a name
// overwrites an earlier one.
type ruleTrials struct {
	r                 *Rule
	pat               *ir.Graph // clone; constant nodes carry the drawn values
	order             []ir.NodeRef
	patVals           []uint16 // pattern node -> value
	prog              *pe.Program
	err               error // a pattern or configuration error every trial reports
	ins, bits, consts []portRef
	// named[k] lists the pattern inputs that share the name of the k-th
	// drawn input (data inputs, then bit inputs).
	named           [][]ir.NodeRef
	inVals, bitVals []uint16 // PE port position -> value
}

func newRuleTrials(r *Rule) *ruleTrials {
	t := &ruleTrials{
		r:       r,
		pat:     r.Pattern.Clone(),
		patVals: make([]uint16, len(r.Pattern.Nodes)),
		ins:     sortedPorts(r.InputPorts),
		bits:    sortedPorts(r.BitPorts),
		consts:  sortedPorts(r.ConstRegs),
		inVals:  make([]uint16, r.Spec.NumDataInputs()),
		bitVals: make([]uint16, r.Spec.NumBitInputs()),
	}
	for _, ps := range [][]portRef{t.ins, t.bits} {
		for _, p := range ps {
			var same []ir.NodeRef
			for v := range t.pat.Nodes {
				n := &t.pat.Nodes[v]
				if (n.Op == ir.OpInput || n.Op == ir.OpInputB) && n.Name == t.pat.Nodes[p.v].Name {
					same = append(same, ir.NodeRef(v))
				}
			}
			t.named = append(t.named, same)
		}
	}
	// Both models' errors depend on the rule alone, never on a vector,
	// so they are found once; the pattern's takes precedence.
	t.err = t.pat.Err()
	if t.err == nil {
		t.order, t.err = t.pat.TopoOrder()
	}
	if t.err == nil {
		t.prog, t.err = r.Spec.Compile(r.Config)
	}
	return t
}

// draw assigns the next random vector: data inputs, then bit inputs,
// then constants (each constant's value goes to both the pattern node
// and its PE constant unit).
func (t *ruleTrials) draw(rng *trialRand) {
	for i, p := range t.ins {
		x := rng.intn(1 << 16)
		t.bindName(i, x)
		t.inVals[p.pos] = x
	}
	for i, p := range t.bits {
		x := rng.intn(2)
		t.bindName(len(t.ins)+i, x)
		t.bitVals[p.pos] = x
	}
	for _, p := range t.consts {
		x := rng.intn(1 << 16)
		if t.pat.Nodes[p.v].Op == ir.OpConstB {
			x &= 1
		}
		t.pat.Nodes[p.v].Val = x
		if t.prog != nil {
			t.prog.Consts[p.pos] = x
		}
	}
}

// bindName gives value x to every pattern input named like the k-th
// drawn input (a 1-bit input keeps its low bit).
func (t *ruleTrials) bindName(k int, x uint16) {
	for _, v := range t.named[k] {
		if t.pat.Nodes[v].Op == ir.OpInputB {
			t.patVals[v] = x & 1
		} else {
			t.patVals[v] = x
		}
	}
}

// check evaluates the pattern and the configured PE on the current
// vector and reports a mismatch at the rule's output.
func (t *ruleTrials) check() error {
	if t.err != nil {
		return t.err
	}
	for _, v := range t.order {
		if n := &t.pat.Nodes[v]; n.Op != ir.OpInput && n.Op != ir.OpInputB {
			t.patVals[v] = ir.EvalNode(n, t.patVals)
		}
	}
	want := t.patVals[t.r.Root]
	t.prog.Run(t.inVals, t.bitVals)
	if got := t.prog.Out(t.r.OutUnit); got != want {
		return fmt.Errorf("rewrite: simulation mismatch: PE %d vs pattern %d", got, want)
	}
	return nil
}

// patternExpr computes the canonical expression of the pattern rooted at
// root with inputs renamed and constants symbolic per their const unit.
func patternExpr(g *ir.Graph, root ir.NodeRef, rename map[string]string, constRegs map[ir.NodeRef]int) (*ir.Expr, error) {
	memo := map[ir.NodeRef]*ir.Expr{}
	var eval func(v ir.NodeRef) (*ir.Expr, error)
	eval = func(v ir.NodeRef) (*ir.Expr, error) {
		if e, ok := memo[v]; ok {
			return e, nil
		}
		n := &g.Nodes[v]
		var e *ir.Expr
		switch n.Op {
		case ir.OpInput, ir.OpInputB:
			name := n.Name
			if rn, ok := rename[name]; ok {
				name = rn
			}
			e = ir.Var(name)
		case ir.OpConst, ir.OpConstB:
			if cu, ok := constRegs[v]; ok {
				e = ir.Var(fmt.Sprintf("c%d", cu))
			} else {
				e = ir.ConstExpr(n.Val)
			}
		default:
			args := make([]*ir.Expr, len(n.Args))
			for i, a := range n.Args {
				ae, err := eval(a)
				if err != nil {
					return nil, err
				}
				args[i] = ae
			}
			e = ir.Apply(n.Op, n.Val, args...)
		}
		memo[v] = e
		return e, nil
	}
	return eval(root)
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
