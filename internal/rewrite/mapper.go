package rewrite

import (
	"fmt"

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

	// PE fields. DataIn and BitIn are indexed by PE input position and
	// hold the producer node wired to that port, or -1 for an unwired
	// port; they end at the highest wired position. ConstVals binds
	// constant units and LUTTables LUT functional units to their
	// per-site words, each sorted by unit and nil when empty.
	Rule      *Rule
	DataIn    []int
	BitIn     []int
	ConstVals []UnitVal
	LUTTables []UnitVal

	// Single-producer fields (mem/reg/regfile/rom/output).
	Arg   int // producer node index, -1 for sources
	Depth int // FIFO depth for KindRegFile
	// Val is the table id of a KindRom, and the value a KindOutput with
	// no producer (Arg -1) drives: an output folded to a constant.
	Val uint16
}

// UnitVal binds one PE unit to a per-site configuration word.
type UnitVal struct {
	Unit int
	Val  uint16
}

// Producers returns the indices of all producer nodes feeding n, in
// ascending port-position order (data ports, then bit ports). The order
// must be deterministic: the placer and router derive topological
// order, net enumeration, and annealing proposals from it.
func (n *MNode) Producers() []int { return n.AppendProducers(nil) }

// AppendProducers appends n's producers to ps in Producers order and
// returns the extended slice; with a reused buffer it allocates nothing.
func (n *MNode) AppendProducers(ps []int) []int {
	switch n.Kind {
	case KindPE:
		for _, p := range n.DataIn {
			if p >= 0 {
				ps = append(ps, p)
			}
		}
		for _, p := range n.BitIn {
			if p >= 0 {
				ps = append(ps, p)
			}
		}
	case KindInput, KindInputB:
	default:
		if n.Arg >= 0 {
			ps = append(ps, n.Arg)
		}
	}
	return ps
}

// WiredInputs counts n's wired data and bit ports.
func (n *MNode) WiredInputs() (data, bit int) {
	return wired(n.DataIn), wired(n.BitIn)
}

func wired(ports []int) int {
	k := 0
	for _, p := range ports {
		if p >= 0 {
			k++
		}
	}
	return k
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

// Validate checks port entries, producer indices and acyclicity. A
// port entry is a producer index or -1 for an unwired port.
func (m *Mapped) Validate() error {
	for i := range m.Nodes {
		n := &m.Nodes[i]
		for _, ports := range [2][]int{n.DataIn, n.BitIn} {
			for _, p := range ports {
				if p < -1 || p >= len(m.Nodes) {
					return fmt.Errorf("rewrite: mapped node %d references %d out of range", i, p)
				}
			}
		}
		if n.Kind != KindPE && n.Kind != KindInput && n.Kind != KindInputB && n.Arg >= len(m.Nodes) {
			return fmt.Errorf("rewrite: mapped node %d references %d out of range", i, n.Arg)
		}
	}
	// Cycle check: a node still in progress when reached again closes a
	// cycle.
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
		if err := m.Nodes[i].eachProducer(visit); err != nil {
			return err
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

// eachProducer calls f on each of n's producers in Producers order and
// returns the first error f returns.
func (n *MNode) eachProducer(f func(int) error) error {
	switch n.Kind {
	case KindPE:
		for _, ports := range [2][]int{n.DataIn, n.BitIn} {
			for _, p := range ports {
				if p < 0 {
					continue
				}
				if err := f(p); err != nil {
					return err
				}
			}
		}
	case KindInput, KindInputB:
	default:
		if n.Arg >= 0 {
			return f(n.Arg)
		}
	}
	return nil
}

// TopoOrder returns node indices in dependency order.
func (m *Mapped) TopoOrder() []int {
	state := make([]uint8, len(m.Nodes))
	order := make([]int, 0, len(m.Nodes))
	var visit func(i int) error
	visit = func(i int) error {
		if state[i] != 0 {
			return nil
		}
		state[i] = 1
		m.Nodes[i].eachProducer(visit)
		state[i] = 2
		order = append(order, i)
		return nil
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
			vals[i] = n.Val
			if n.Arg >= 0 {
				vals[i] = vals[n.Arg]
			}
			outs[n.Name] = vals[i]
		case KindPE:
			pp, err := n.CompilePE(m.Spec)
			if err != nil {
				return nil, fmt.Errorf("rewrite: PE node %d (%s): %w", i, n.Rule.Name, err)
			}
			vals[i] = pp.Eval(vals)
		}
	}
	return outs, nil
}

// PEProgram is a PE node's rule configuration compiled with the node's
// constants and LUT tables bound, evaluated on producer values.
type PEProgram struct {
	n        *MNode
	p        *pe.Program
	in, bits []uint16
	out      bool // the rule's output unit is a configured output
}

// CompilePE compiles PE node n for spec.
func (n *MNode) CompilePE(spec *pe.Spec) (*PEProgram, error) {
	p, err := spec.Compile(n.Rule.Config)
	if err != nil {
		return nil, err
	}
	for _, uvs := range [2][]UnitVal{n.ConstVals, n.LUTTables} {
		for _, uv := range uvs {
			if uv.Unit >= 0 && uv.Unit < len(p.Consts) {
				p.Consts[uv.Unit] = uv.Val
			}
		}
	}
	nd, nb := spec.NumDataInputs(), spec.NumBitInputs()
	ports := make([]uint16, nd+nb)
	pp := &PEProgram{n: n, p: p, in: ports[:nd:nd], bits: ports[nd:]}
	for _, o := range p.Outputs {
		pp.out = pp.out || o == n.Rule.OutUnit
	}
	return pp, nil
}

// Eval returns the node's output word when its ports read vals (indexed
// by mapped node); unwired ports read zero. It allocates nothing.
func (pp *PEProgram) Eval(vals []uint16) uint16 {
	for pos := range pp.in {
		pp.in[pos] = 0
		if pos < len(pp.n.DataIn) && pp.n.DataIn[pos] >= 0 {
			pp.in[pos] = vals[pp.n.DataIn[pos]]
		}
	}
	for pos := range pp.bits {
		pp.bits[pos] = 0
		if pos < len(pp.n.BitIn) && pp.n.BitIn[pos] >= 0 {
			pp.bits[pos] = vals[pp.n.BitIn[pos]]
		}
	}
	pp.p.Run(pp.in, pp.bits)
	if !pp.out {
		return 0
	}
	return pp.p.Out(pp.n.Rule.OutUnit)
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
		if op := app.Nodes[a].Op; op == ir.OpConst || op == ir.OpConstB {
			return -1, fmt.Errorf("rewrite: producer %d is constant %d; only an output may be constant-driven", a, app.Nodes[a].Val)
		}
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

	var sc peScratch
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
			if c := &app.Nodes[n.Args[0]]; c.Op == ir.OpConst || c.Op == ir.OpConstB {
				// Folded to a constant: the output's IO tile drives the
				// value itself, with no PE and no net.
				mappedIdx[av] = m.add(MNode{Kind: KindOutput, Name: n.Name, Arg: -1, Val: c.Val})
				break
			}
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
			pn, err := peNode(app, cm, producerIdx, &sc)
			if err != nil {
				return nil, err
			}
			mappedIdx[av] = m.add(pn)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// peScratch is buildMapped's per-call scratch for peNode: the wired
// ports and configuration words of the PE being built.
type peScratch struct {
	ports        []portBind
	consts, luts []UnitVal
}

type portBind struct {
	pos, prod int
	bit       bool
}

// peNode builds the PE node of one committed match. Its port slices and
// configuration words each take one allocation.
func peNode(app *ir.Graph, cm *match, producerIdx func(ir.NodeRef) (int, error), sc *peScratch) (MNode, error) {
	pn := MNode{Kind: KindPE, Rule: cm.rule, Arg: -1}
	sc.ports = sc.ports[:0]
	nData, nBit := 0, 0
	for pv, anode := range cm.inputMap {
		if anode < 0 {
			continue
		}
		p, err := producerIdx(anode)
		if err != nil {
			return pn, err
		}
		b := portBind{prod: p}
		var ok bool
		if b.pos, ok = cm.rule.InputPorts[ir.NodeRef(pv)]; ok {
			nData = max(nData, b.pos+1)
		} else if b.pos, ok = cm.rule.BitPorts[ir.NodeRef(pv)]; ok {
			b.bit = true
			nBit = max(nBit, b.pos+1)
		} else {
			return pn, fmt.Errorf("rewrite: pattern input %d has no PE port", pv)
		}
		if b.pos < 0 {
			return pn, fmt.Errorf("rewrite: pattern input %d has negative PE port %d", pv, b.pos)
		}
		sc.ports = append(sc.ports, b)
	}
	if nData+nBit > 0 {
		ports := make([]int, nData+nBit)
		for i := range ports {
			ports[i] = -1
		}
		pn.DataIn, pn.BitIn = ports[:nData:nData], ports[nData:]
		for _, b := range sc.ports {
			if b.bit {
				pn.BitIn[b.pos] = b.prod
			} else {
				pn.DataIn[b.pos] = b.prod
			}
		}
		if nData == 0 {
			pn.DataIn = nil
		}
		if nBit == 0 {
			pn.BitIn = nil
		}
	}
	// Each list in pattern-node order; a unit bound twice keeps its last
	// word.
	sc.consts, sc.luts = sc.consts[:0], sc.luts[:0]
	for pv, anode := range cm.nodeMap {
		if anode < 0 {
			continue
		}
		switch cm.rule.Pattern.Nodes[pv].Op {
		case ir.OpConst, ir.OpConstB:
			sc.consts = append(sc.consts, UnitVal{cm.rule.ConstRegs[ir.NodeRef(pv)], app.Nodes[anode].Val})
		case ir.OpLUT:
			sc.luts = append(sc.luts, UnitVal{cm.rule.LUTUnits[ir.NodeRef(pv)], app.Nodes[anode].Val})
		}
	}
	if nc, nl := len(sc.consts), len(sc.luts); nc+nl > 0 {
		words := append(append(make([]UnitVal, 0, nc+nl), sc.consts...), sc.luts...)
		pn.ConstVals = sortUnits(words[:nc:nc])
		pn.LUTTables = sortUnits(words[nc:])
	}
	return pn, nil
}

// sortUnits sorts a short binding list by unit (stably, by insertion),
// drops all but the last binding of a unit, and returns nil for an
// empty result.
func sortUnits(uvs []UnitVal) []UnitVal {
	for i := 1; i < len(uvs); i++ {
		for j := i; j > 0 && uvs[j-1].Unit > uvs[j].Unit; j-- {
			uvs[j-1], uvs[j] = uvs[j], uvs[j-1]
		}
	}
	out := uvs[:0]
	for i, uv := range uvs {
		if i+1 < len(uvs) && uvs[i+1].Unit == uv.Unit {
			continue
		}
		out = append(out, uv)
	}
	if len(out) == 0 {
		return nil
	}
	return out
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
