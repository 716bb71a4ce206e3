package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/pe"
)

// NodeKind discriminates mapped-graph nodes (tile-level entities).
type NodeKind uint8

const (
	KindInput NodeKind = iota
	KindInputB
	KindOutput
	KindMem     // memory tile
	KindReg     // pipeline register (lives in the interconnect)
	KindRegFile // register file used as a FIFO (lives in a PE tile)
	KindRom     // constant table in a memory tile
	KindPE      // configured processing element
)

func (k NodeKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindInputB:
		return "inputb"
	case KindOutput:
		return "output"
	case KindMem:
		return "mem"
	case KindReg:
		return "reg"
	case KindRegFile:
		return "regfile"
	case KindRom:
		return "rom"
	case KindPE:
		return "pe"
	}
	return "?"
}

// MNode is one node of the mapped graph.
type MNode struct {
	Kind NodeKind
	Name string // IO name for inputs/outputs

	// PE fields.
	Rule      *Rule
	DataIn    map[int]int    // PE data-input position -> producer node
	BitIn     map[int]int    // PE bit-input position -> producer node
	ConstVals map[int]uint16 // constant unit -> per-site value
	LUTTables map[int]uint16 // LUT functional unit -> per-site table

	// Single-producer fields (mem/reg/regfile/rom/output).
	Arg   int // producer node index, -1 for sources
	Depth int // FIFO depth for KindRegFile
	Val   uint16
}

// Producers returns the indices of all producer nodes feeding n, in
// ascending port-position order. The order must be deterministic: the
// placer and router derive topological order, net enumeration, and
// annealing proposals from it, so map-iteration order here would make
// place-and-route results vary run to run.
func (n *MNode) Producers() []int {
	switch n.Kind {
	case KindPE:
		ps := make([]int, 0, len(n.DataIn)+len(n.BitIn))
		for _, pos := range sortedPositions(n.DataIn) {
			ps = append(ps, n.DataIn[pos])
		}
		for _, pos := range sortedPositions(n.BitIn) {
			ps = append(ps, n.BitIn[pos])
		}
		return ps
	case KindInput, KindInputB:
		return nil
	default:
		if n.Arg < 0 {
			return nil
		}
		return []int{n.Arg}
	}
}

// sortedPositions returns the keys of a position-indexed map in
// ascending order.
func sortedPositions(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Mapped is an application mapped onto a PE architecture: a graph of PE,
// memory, register, and I/O nodes ready for pipelining and place-and-
// route.
type Mapped struct {
	Name  string
	Spec  *pe.Spec
	Nodes []MNode
}

// NumPEs counts PE nodes.
func (m *Mapped) NumPEs() int { return m.countKind(KindPE) }

// NumMems counts memory-tile nodes (mem + rom).
func (m *Mapped) NumMems() int { return m.countKind(KindMem) + m.countKind(KindRom) }

// NumIO counts input and output nodes.
func (m *Mapped) NumIO() int {
	return m.countKind(KindInput) + m.countKind(KindInputB) + m.countKind(KindOutput)
}

// NumRegs counts interconnect pipeline registers.
func (m *Mapped) NumRegs() int { return m.countKind(KindReg) }

// NumRegFiles counts register-file FIFOs.
func (m *Mapped) NumRegFiles() int { return m.countKind(KindRegFile) }

func (m *Mapped) countKind(k NodeKind) int {
	n := 0
	for i := range m.Nodes {
		if m.Nodes[i].Kind == k {
			n++
		}
	}
	return n
}

// Validate checks producer indices and acyclicity.
func (m *Mapped) Validate() error {
	for i := range m.Nodes {
		for _, p := range m.Nodes[i].Producers() {
			if p < 0 || p >= len(m.Nodes) {
				return fmt.Errorf("rewrite: mapped node %d references %d out of range", i, p)
			}
		}
	}
	// Cycle check via DFS.
	state := make([]uint8, len(m.Nodes))
	var visit func(i int) error
	visit = func(i int) error {
		if state[i] == 2 {
			return nil
		}
		if state[i] == 1 {
			return fmt.Errorf("rewrite: mapped graph cycle at node %d", i)
		}
		state[i] = 1
		for _, p := range m.Nodes[i].Producers() {
			if err := visit(p); err != nil {
				return err
			}
		}
		state[i] = 2
		return nil
	}
	for i := range m.Nodes {
		if err := visit(i); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns node indices in dependency order.
func (m *Mapped) TopoOrder() []int {
	state := make([]uint8, len(m.Nodes))
	order := make([]int, 0, len(m.Nodes))
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		for _, p := range m.Nodes[i].Producers() {
			visit(p)
		}
		state[i] = 2
		order = append(order, i)
	}
	for i := range m.Nodes {
		visit(i)
	}
	return order
}

// Eval runs the mapped graph's functional model combinationally (memory
// and registers transparent): every PE evaluates its configured spec. The
// result must match the original application graph's Eval — the core
// correctness property of the compiler.
func (m *Mapped) Eval(inputs map[string]uint16) (map[string]uint16, error) {
	vals := make([]uint16, len(m.Nodes))
	outs := map[string]uint16{}
	for _, i := range m.TopoOrder() {
		n := &m.Nodes[i]
		switch n.Kind {
		case KindInput:
			vals[i] = inputs[n.Name]
		case KindInputB:
			vals[i] = inputs[n.Name] & 1
		case KindMem, KindReg, KindRegFile:
			vals[i] = vals[n.Arg]
		case KindRom:
			vals[i] = ir.EvalOp(ir.OpRom, []uint16{vals[n.Arg]}, n.Val)
		case KindOutput:
			vals[i] = vals[n.Arg]
			outs[n.Name] = vals[i]
		case KindPE:
			cfg := n.Rule.Config.Clone()
			for cu, v := range n.ConstVals {
				cfg.ConstVals[cu] = v
			}
			for fu, tbl := range n.LUTTables {
				cfg.ConstVals[fu] = tbl
			}
			inVals := map[int]uint16{}
			for pos, p := range n.DataIn {
				inVals[pos] = vals[p]
			}
			bitVals := map[int]uint16{}
			for pos, p := range n.BitIn {
				bitVals[pos] = vals[p]
			}
			res, err := m.Spec.Evaluate(cfg, inVals, bitVals)
			if err != nil {
				return nil, fmt.Errorf("rewrite: PE node %d (%s): %w", i, n.Rule.Name, err)
			}
			vals[i] = res[n.Rule.OutUnit]
		}
	}
	return outs, nil
}

// match records one committed rule application. Both bindings are
// indexed by pattern node and hold -1 for nodes they do not bind.
type match struct {
	rule     *Rule
	root     ir.NodeRef
	nodeMap  []ir.NodeRef // pattern compute/const -> app node
	inputMap []ir.NodeRef // pattern input -> app producer
}

// MapApp covers the application graph with the rule set's patterns,
// complex rules first (the paper's greedy LLVM-style instruction
// selection), and returns the mapped graph.
func MapApp(app *ir.Graph, rs *RuleSet, name string) (*Mapped, error) {
	mt := newMatcher(app, rs.Rules)
	order := reverseTopo(app)
	for _, rule := range rs.Rules {
		rootOp := app0Op(rule)
		for _, av := range order {
			n := &app.Nodes[av]
			if n.Op != rootOp || mt.covered[av] != nil {
				continue
			}
			m := mt.tryMatch(rule, av)
			if m == nil {
				continue
			}
			// Commit.
			for pv, anode := range m.nodeMap {
				if anode >= 0 && rule.Pattern.Nodes[pv].Op.IsCompute() {
					mt.covered[anode] = m
				}
			}
			for _, anode := range m.inputMap {
				if anode >= 0 && app.Nodes[anode].Op.IsCompute() {
					mt.required[anode] = true
				}
			}
		}
	}

	// Every compute node must be covered.
	for i, n := range app.Nodes {
		if n.Op.IsCompute() && mt.covered[i] == nil {
			return nil, fmt.Errorf("rewrite: no rule covers node %d (%s) — PE lacks op %s",
				i, n.Op, n.Op)
		}
	}

	return buildMapped(app, mt.covered, rs.Spec, name)
}

func app0Op(rule *Rule) ir.Op { return rule.Pattern.Nodes[rule.Root].Op }

func reverseTopo(app *ir.Graph) []ir.NodeRef {
	// Reverse topological: users before producers, so bigger matches
	// claim downstream roots first.
	order := appTopo(app)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// matcher is the instruction selector's state for one MapApp call: the
// committed cover (covered, required) and the scratch of the attempt in
// progress. An attempt binds pattern nodes in nodeMap and inputMap
// (indexed by pattern node) and app compute nodes back to pattern nodes
// in rev (indexed by app node), all -1 when unbound. Every write pushes
// the slot's old value on an undo trail, so a failed operand order rolls
// back to exactly the state before it; after an attempt the trail is
// unwound to empty, leaving every slot -1 for the next one.
type matcher struct {
	app      *ir.Graph
	users    [][]ir.NodeRef
	covered  []*match
	required []bool

	rule     *Rule
	root     ir.NodeRef
	nodeMap  []ir.NodeRef
	inputMap []ir.NodeRef
	rev      []ir.NodeRef
	trail    []bindUndo
}

// Binding slots a bindUndo entry restores.
const (
	slotNode uint8 = iota
	slotInput
	slotRev
)

type bindUndo struct {
	slot     uint8
	key, old ir.NodeRef
}

func newMatcher(app *ir.Graph, rules []*Rule) *matcher {
	mt := &matcher{
		app:      app,
		users:    make([][]ir.NodeRef, len(app.Nodes)),
		covered:  make([]*match, len(app.Nodes)),
		required: make([]bool, len(app.Nodes)),
		rev:      make([]ir.NodeRef, len(app.Nodes)),
	}
	for i, n := range app.Nodes {
		for _, a := range n.Args {
			mt.users[a] = append(mt.users[a], ir.NodeRef(i))
		}
		// Values consumed by structural nodes must be exposed on the fabric.
		switch n.Op {
		case ir.OpOutput, ir.OpMem, ir.OpReg, ir.OpRegFileFIFO, ir.OpRom:
			for _, a := range n.Args {
				mt.required[a] = true
			}
		}
	}
	patMax := 0
	for _, r := range rules {
		patMax = max(patMax, len(r.Pattern.Nodes))
	}
	mt.nodeMap = make([]ir.NodeRef, patMax)
	mt.inputMap = make([]ir.NodeRef, patMax)
	for _, s := range [][]ir.NodeRef{mt.nodeMap, mt.inputMap, mt.rev} {
		for i := range s {
			s[i] = -1
		}
	}
	return mt
}

func (mt *matcher) slot(s uint8) []ir.NodeRef {
	switch s {
	case slotNode:
		return mt.nodeMap
	case slotInput:
		return mt.inputMap
	}
	return mt.rev
}

// set binds slot s[key] = val, recording the old value on the trail.
func (mt *matcher) set(s uint8, key, val ir.NodeRef) {
	m := mt.slot(s)
	mt.trail = append(mt.trail, bindUndo{slot: s, key: key, old: m[key]})
	m[key] = val
}

// undoTo unwinds the trail to length mark, restoring each slot's old
// value in reverse order.
func (mt *matcher) undoTo(mark int) {
	for i := len(mt.trail) - 1; i >= mark; i-- {
		u := mt.trail[i]
		mt.slot(u.slot)[u.key] = u.old
	}
	mt.trail = mt.trail[:mark]
}

// tryMatch attempts to match the rule's pattern rooted at app node av,
// returning the match or nil. A failed attempt allocates nothing.
func (mt *matcher) tryMatch(rule *Rule, av ir.NodeRef) *match {
	np := len(rule.Pattern.Nodes)
	mt.rule, mt.root = rule, av
	mt.nodeMap, mt.inputMap = mt.nodeMap[:np], mt.inputMap[:np]
	defer mt.undoTo(0)
	if !mt.bind(rule.Root, av) || !mt.exposed() {
		return nil
	}
	bound := make([]ir.NodeRef, 0, 2*np) // both bindings, one allocation
	bound = append(append(bound, mt.nodeMap...), mt.inputMap...)
	return &match{rule: rule, root: av, nodeMap: bound[:np:np], inputMap: bound[np:]}
}

// exposed checks a complete binding against the fabric: interior compute
// nodes must have every user inside the match, and a wildcard operand
// must not point at a node this very match absorbs as interior (its
// value would not exist on the fabric).
func (mt *matcher) exposed() bool {
	for pv, anode := range mt.nodeMap {
		if anode < 0 || anode == mt.root || !mt.rule.Pattern.Nodes[pv].Op.IsCompute() {
			continue
		}
		for _, u := range mt.users[anode] {
			if mt.rev[u] < 0 {
				return false
			}
		}
	}
	for _, anode := range mt.inputMap {
		if anode >= 0 && anode != mt.root && mt.rev[anode] >= 0 {
			return false
		}
	}
	return true
}

// bind matches pattern node pv onto app node anode and, for compute
// nodes, their operand subtrees (both operand orders for commutative
// binary ops). On failure the bindings are exactly as before the call.
func (mt *matcher) bind(pv, anode ir.NodeRef) bool {
	pn := &mt.rule.Pattern.Nodes[pv]
	an := &mt.app.Nodes[anode]
	switch pn.Op {
	case ir.OpInput, ir.OpInputB:
		// Wildcard: any producer except constants and outputs.
		if an.Op == ir.OpConst || an.Op == ir.OpConstB || an.Op == ir.OpOutput {
			return false
		}
		// The producer's value must be exposable: it must not be
		// interior to another committed match.
		if cm := mt.covered[anode]; cm != nil && cm.root != anode {
			return false
		}
		if prev := mt.inputMap[pv]; prev >= 0 {
			return prev == anode
		}
		mt.set(slotInput, pv, anode)
		return true
	case ir.OpConst, ir.OpConstB:
		if an.Op != pn.Op {
			return false
		}
		// A constant shared by two pattern users feeds both from one
		// constant unit: once bound, it matches only the same app
		// constant or one with an equal value.
		if prev := mt.nodeMap[pv]; prev >= 0 {
			return prev == anode || mt.app.Nodes[prev].Val == an.Val
		}
		mt.set(slotNode, pv, anode)
		return true
	}
	// Compute node.
	if an.Op != pn.Op {
		return false
	}
	if mt.covered[anode] != nil {
		return false
	}
	// Interior nodes must be absorbable: not required on the fabric.
	if anode != mt.root && mt.required[anode] {
		return false
	}
	if prev := mt.nodeMap[pv]; prev >= 0 {
		return prev == anode
	}
	if prevP := mt.rev[anode]; prevP >= 0 && prevP != pv {
		return false
	}
	mark := len(mt.trail)
	mt.set(slotNode, pv, anode)
	mt.set(slotRev, anode, pv)

	orders := 1
	if pn.Op.Commutative() && len(pn.Args) == 2 {
		orders = 2 // identity, then swapped
	}
	for swap := 0; swap < orders; swap++ {
		opMark := len(mt.trail)
		ok := true
		for p, parg := range pn.Args {
			if swap == 1 {
				p = 1 - p
			}
			if !mt.bind(parg, an.Args[p]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		mt.undoTo(opMark)
	}
	mt.undoTo(mark)
	return false
}

// buildMapped materializes the mapped graph from committed matches.
func buildMapped(app *ir.Graph, covered []*match, spec *pe.Spec, name string) (*Mapped, error) {
	m := &Mapped{Name: name, Spec: spec}
	mappedIdx := make([]int, len(app.Nodes))
	for i := range mappedIdx {
		mappedIdx[i] = -1
	}
	// producerIdx resolves an app producer to its mapped node: compute
	// nodes resolve to their match root's PE node.
	producerIdx := func(a ir.NodeRef) (int, error) {
		if app.Nodes[a].Op.IsCompute() {
			cm := covered[a]
			if cm == nil || cm.root != a {
				return -1, fmt.Errorf("rewrite: producer %d is not an exposed root", a)
			}
			a = cm.root
		}
		if mappedIdx[a] < 0 {
			return -1, fmt.Errorf("rewrite: producer %d not yet materialized", a)
		}
		return mappedIdx[a], nil
	}

	topo := appTopo(app)
	for _, av := range topo {
		n := &app.Nodes[av]
		switch n.Op {
		case ir.OpInput:
			mappedIdx[av] = m.add(MNode{Kind: KindInput, Name: n.Name, Arg: -1})
		case ir.OpInputB:
			mappedIdx[av] = m.add(MNode{Kind: KindInputB, Name: n.Name, Arg: -1})
		case ir.OpConst, ir.OpConstB:
			// Constants are absorbed into PE constant registers.
		case ir.OpMem:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindMem, Arg: p})
		case ir.OpReg:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindReg, Arg: p})
		case ir.OpRegFileFIFO:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindRegFile, Arg: p, Depth: int(n.Val)})
		case ir.OpRom:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindRom, Arg: p, Val: n.Val})
		case ir.OpOutput:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(MNode{Kind: KindOutput, Name: n.Name, Arg: p})
		default:
			// Compute node: materialize a PE at its match root.
			cm := covered[av]
			if cm == nil || cm.root != av {
				continue // interior node, absorbed
			}
			pn := MNode{
				Kind:      KindPE,
				Rule:      cm.rule,
				DataIn:    map[int]int{},
				BitIn:     map[int]int{},
				ConstVals: map[int]uint16{},
				LUTTables: map[int]uint16{},
				Arg:       -1,
			}
			for pv, anode := range cm.inputMap {
				if anode < 0 {
					continue
				}
				p, err := producerIdx(anode)
				if err != nil {
					return nil, err
				}
				if pos, ok := cm.rule.InputPorts[ir.NodeRef(pv)]; ok {
					pn.DataIn[pos] = p
				} else if pos, ok := cm.rule.BitPorts[ir.NodeRef(pv)]; ok {
					pn.BitIn[pos] = p
				} else {
					return nil, fmt.Errorf("rewrite: pattern input %d has no PE port", pv)
				}
			}
			for pv, anode := range cm.nodeMap {
				if anode < 0 {
					continue
				}
				pnode := &cm.rule.Pattern.Nodes[pv]
				switch pnode.Op {
				case ir.OpConst, ir.OpConstB:
					pn.ConstVals[cm.rule.ConstRegs[ir.NodeRef(pv)]] = app.Nodes[anode].Val
				case ir.OpLUT:
					pn.LUTTables[cm.rule.LUTUnits[ir.NodeRef(pv)]] = app.Nodes[anode].Val
				}
			}
			mappedIdx[av] = m.add(pn)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Mapped) add(n MNode) int {
	m.Nodes = append(m.Nodes, n)
	return len(m.Nodes) - 1
}

func appTopo(app *ir.Graph) []ir.NodeRef {
	n := len(app.Nodes)
	state := make([]uint8, n)
	var order []ir.NodeRef
	var visit func(v ir.NodeRef)
	visit = func(v ir.NodeRef) {
		if state[v] != 0 {
			return
		}
		state[v] = 1
		for _, a := range app.Nodes[v].Args {
			visit(a)
		}
		state[v] = 2
		order = append(order, v)
	}
	for v := 0; v < n; v++ {
		visit(ir.NodeRef(v))
	}
	return order
}
