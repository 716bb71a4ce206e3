package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
	"repro/internal/rewrite"
)

// TestMapAppMatchesLegacy maps every suite app onto every PE variant the
// suite builds, once with rewrite.MapApp and once with a frozen copy of
// its map-and-snapshot predecessor, and requires identical mapped graphs
// (or identical errors).
func TestMapAppMatchesLegacy(t *testing.T) {
	h := NewHarness()
	h.FastMode = true
	if _, err := h.Suite(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	var variants []*core.PEVariant
	for _, e := range h.variants.entries {
		if e.err == nil {
			variants = append(variants, e.val)
		}
	}
	sort.Slice(variants, func(i, j int) bool { return variants[i].Name < variants[j].Name })
	if len(variants) < 10 {
		t.Fatalf("suite built only %d variants", len(variants))
	}
	mapped := 0
	for _, v := range variants {
		for _, a := range apps.All() {
			name := a.Name + "@" + v.Name
			got, gerr := rewrite.MapApp(a.Graph, v.Rules, name)
			want, werr := legacyMapApp(a.Graph, v.Rules, name)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, legacy %v", name, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: mapped graph differs from legacy", name)
			}
			if gerr == nil {
				mapped++
			}
		}
	}
	t.Logf("%d variants x %d apps, %d mapped", len(variants), len(apps.All()), mapped)
}

// TestMapAppMatchesLegacyRandom drives both selectors over random
// applications and rule sets built to hit backtracking paths the suite
// rarely takes: commutative patterns whose first operand binds and whose
// second fails (the failed order must unwind before the swap is tried),
// and constants shared by two pattern users (which must meet equal app
// constants).
func TestMapAppMatchesLegacyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ops := []ir.Op{ir.OpAdd, ir.OpMul, ir.OpSub, ir.OpXor, ir.OpAnd}
	mapped, complex := 0, 0
	for trial := 0; trial < 150; trial++ {
		dp := merge.BaselinePE(ops)
		var named []rewrite.NamedPattern
		for i := 0; i < 1+rng.Intn(3); i++ {
			np := rewrite.NamedPattern{Name: fmt.Sprintf("t%d_p%d", trial, i), Graph: randomMapPattern(rng, ops)}
			pdp, err := merge.FromPattern(np.Graph, np.Name)
			if err != nil {
				t.Fatal(err)
			}
			dp = merge.Merge(dp, pdp, merge.Options{})
			named = append(named, np)
		}
		rs, err := rewrite.SynthesizeRuleSet(pe.FromDatapath("rnd", dp), named, ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs.Rules {
			if r.Size > 1 {
				complex++
			}
		}
		app := randomMapApp(rng, ops, 10+rng.Intn(40))
		name := fmt.Sprintf("trial%d", trial)
		got, gerr := rewrite.MapApp(app, rs, name)
		want, werr := legacyMapApp(app, rs, name)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: error %v, legacy %v", trial, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: mapped graph differs from legacy", trial)
		}
		if gerr == nil {
			mapped++
		}
	}
	if mapped < 100 || complex < 100 {
		t.Fatalf("only %d apps mapped with %d complex rules; the generators lost their reach", mapped, complex)
	}
}

// randomMapApp builds an application over ops whose operands are biased
// to recent values and draw from a small pool of constants, so pattern
// constants meet both shared and distinct application constants.
func randomMapApp(rng *rand.Rand, ops []ir.Op, nOps int) *ir.Graph {
	g := ir.NewGraph("rnd")
	vals := []ir.NodeRef{g.Input("a"), g.Input("b"), g.Input("c")}
	consts := []ir.NodeRef{g.Const(3), g.Const(5)}
	value := func() ir.NodeRef { return vals[max(0, len(vals)-1-rng.Intn(4))] }
	for i := 0; i < nOps; i++ {
		// At most one constant operand: no rule covers an op on two.
		x, y := value(), value()
		if rng.Intn(3) == 0 {
			y = consts[rng.Intn(len(consts))]
			if rng.Intn(3) == 0 {
				y = g.Const(uint16(rng.Intn(8)))
			}
		}
		if rng.Intn(2) == 0 {
			x, y = y, x
		}
		vals = append(vals, g.OpNode(ops[rng.Intn(len(ops))], x, y))
	}
	g.Output("o0", vals[len(vals)-1])
	g.Output("o1", vals[len(vals)/2])
	return g
}

// randomMapPattern builds a single-output pattern of two or three ops
// whose leaves are fresh inputs or constants, a constant sometimes
// feeding two ops, with operand order random (an input may come first).
func randomMapPattern(rng *rand.Rand, ops []ir.Op) *ir.Graph {
	g := ir.NewGraph("pat")
	inputs := 0
	var shared ir.NodeRef = -1
	leaf := func() ir.NodeRef {
		switch r := rng.Intn(5); {
		case r == 0 && shared >= 0:
			return shared
		case r <= 1:
			shared = g.Const(0)
			return shared
		}
		inputs++
		return g.Input(fmt.Sprintf("x%d", inputs))
	}
	op := func() ir.Op { return ops[rng.Intn(len(ops))] }
	inner := g.OpNode(op(), leaf(), leaf())
	if rng.Intn(2) == 0 {
		inner = g.OpNode(op(), inner, leaf())
	}
	var root ir.NodeRef
	if rng.Intn(2) == 0 {
		root = g.OpNode(op(), leaf(), inner)
	} else {
		root = g.OpNode(op(), inner, leaf())
	}
	g.Output("o", root)
	return g
}

// legacyMatch, legacyMapApp, legacyTryMatch and legacyBuildMapped are
// the pre-optimization instruction selector, kept verbatim (modulo
// names and the unused isRoot bookkeeping) as a differential oracle.
type legacyMatch struct {
	rule     *rewrite.Rule
	root     ir.NodeRef
	nodeMap  map[ir.NodeRef]ir.NodeRef
	inputMap map[ir.NodeRef]ir.NodeRef
}

func legacyMapApp(app *ir.Graph, rs *rewrite.RuleSet, name string) (*rewrite.Mapped, error) {
	users := make([][]ir.NodeRef, len(app.Nodes))
	for i, n := range app.Nodes {
		for _, a := range n.Args {
			users[a] = append(users[a], ir.NodeRef(i))
		}
	}
	covered := make([]*legacyMatch, len(app.Nodes))
	required := make([]bool, len(app.Nodes))
	for _, n := range app.Nodes {
		switch n.Op {
		case ir.OpOutput, ir.OpMem, ir.OpReg, ir.OpRegFileFIFO, ir.OpRom:
			for _, a := range n.Args {
				required[a] = true
			}
		}
	}
	var matches []*legacyMatch
	order := legacyTopo(app)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for _, rule := range rs.Rules {
		rootOp := rule.Pattern.Nodes[rule.Root].Op
		for _, av := range order {
			n := &app.Nodes[av]
			if n.Op != rootOp || covered[av] != nil {
				continue
			}
			mt := legacyTryMatch(app, users, covered, required, rule, av)
			if mt == nil {
				continue
			}
			matches = append(matches, mt)
			for pv, anode := range mt.nodeMap {
				if rule.Pattern.Nodes[pv].Op.IsCompute() {
					covered[anode] = mt
				}
			}
			for _, anode := range mt.inputMap {
				if app.Nodes[anode].Op.IsCompute() {
					required[anode] = true
				}
			}
		}
	}
	for i, n := range app.Nodes {
		if n.Op.IsCompute() && covered[i] == nil {
			return nil, fmt.Errorf("rewrite: no rule covers node %d (%s) — PE lacks op %s",
				i, n.Op, n.Op)
		}
	}
	return legacyBuildMapped(app, covered, rs.Spec, name)
}

func legacyTryMatch(app *ir.Graph, users [][]ir.NodeRef, covered []*legacyMatch, required []bool, rule *rewrite.Rule, av ir.NodeRef) *legacyMatch {
	mt := &legacyMatch{
		rule:     rule,
		root:     av,
		nodeMap:  map[ir.NodeRef]ir.NodeRef{},
		inputMap: map[ir.NodeRef]ir.NodeRef{},
	}
	rev := map[ir.NodeRef]ir.NodeRef{}
	var bind func(pv, anode ir.NodeRef) bool
	bind = func(pv, anode ir.NodeRef) bool {
		pn := &rule.Pattern.Nodes[pv]
		an := &app.Nodes[anode]
		switch pn.Op {
		case ir.OpInput, ir.OpInputB:
			if an.Op == ir.OpConst || an.Op == ir.OpConstB || an.Op == ir.OpOutput {
				return false
			}
			if cm := covered[anode]; cm != nil && cm.root != anode {
				return false
			}
			if prev, ok := mt.inputMap[pv]; ok {
				return prev == anode
			}
			mt.inputMap[pv] = anode
			return true
		case ir.OpConst, ir.OpConstB:
			if an.Op != pn.Op {
				return false
			}
			// Deliberate departure from the frozen copy: it re-bound a
			// constant shared by two pattern users at each site, so the
			// last site won and add(mul(x,k),k) mapped add(mul(a,3),5)
			// to a*5+5. The selector now requires the same app constant
			// or an equal value, and the oracle follows it.
			if prev, ok := mt.nodeMap[pv]; ok {
				return prev == anode || app.Nodes[prev].Val == an.Val
			}
			mt.nodeMap[pv] = anode
			return true
		}
		if an.Op != pn.Op {
			return false
		}
		if covered[anode] != nil {
			return false
		}
		if anode != av && required[anode] {
			return false
		}
		if prev, ok := mt.nodeMap[pv]; ok {
			return prev == anode
		}
		if prevP, ok := rev[anode]; ok && prevP != pv {
			return false
		}
		mt.nodeMap[pv] = anode
		rev[anode] = pv
		orders := [][]int{legacyIdentityOrder(len(pn.Args))}
		if pn.Op.Commutative() && len(pn.Args) == 2 {
			orders = append(orders, []int{1, 0})
		}
		for _, ord := range orders {
			ok := true
			snapNode := legacyCopyRefRefMap(mt.nodeMap)
			snapIn := legacyCopyRefRefMap(mt.inputMap)
			snapRev := legacyCopyRefRefMap(rev)
			for p := range pn.Args {
				if !bind(pn.Args[p], an.Args[ord[p]]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
			mt.nodeMap = snapNode
			mt.inputMap = snapIn
			rev = snapRev
			mt.nodeMap[pv] = anode
			rev[anode] = pv
		}
		delete(mt.nodeMap, pv)
		delete(rev, anode)
		return false
	}
	if !bind(rule.Root, av) {
		return nil
	}
	for pv, anode := range mt.nodeMap {
		if !rule.Pattern.Nodes[pv].Op.IsCompute() || anode == av {
			continue
		}
		for _, u := range users[anode] {
			if _, ok := rev[u]; !ok {
				return nil
			}
		}
	}
	for _, anode := range mt.inputMap {
		if _, interior := rev[anode]; interior && anode != av {
			return nil
		}
	}
	return mt
}

func legacyIdentityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func legacyCopyRefRefMap(m map[ir.NodeRef]ir.NodeRef) map[ir.NodeRef]ir.NodeRef {
	c := make(map[ir.NodeRef]ir.NodeRef, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func legacyBuildMapped(app *ir.Graph, covered []*legacyMatch, spec *pe.Spec, name string) (*rewrite.Mapped, error) {
	m := &rewrite.Mapped{Name: name, Spec: spec}
	add := func(n rewrite.MNode) int {
		m.Nodes = append(m.Nodes, n)
		return len(m.Nodes) - 1
	}
	mappedIdx := make([]int, len(app.Nodes))
	for i := range mappedIdx {
		mappedIdx[i] = -1
	}
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
	single := map[ir.Op]rewrite.NodeKind{
		ir.OpMem: rewrite.KindMem, ir.OpReg: rewrite.KindReg,
		ir.OpRegFileFIFO: rewrite.KindRegFile, ir.OpRom: rewrite.KindRom,
		ir.OpOutput: rewrite.KindOutput,
	}
	for _, av := range legacyTopo(app) {
		n := &app.Nodes[av]
		switch n.Op {
		case ir.OpInput:
			mappedIdx[av] = add(rewrite.MNode{Kind: rewrite.KindInput, Name: n.Name, Arg: -1})
		case ir.OpInputB:
			mappedIdx[av] = add(rewrite.MNode{Kind: rewrite.KindInputB, Name: n.Name, Arg: -1})
		case ir.OpConst, ir.OpConstB:
		case ir.OpMem, ir.OpReg, ir.OpRegFileFIFO, ir.OpRom, ir.OpOutput:
			p, err := producerIdx(n.Args[0])
			if err != nil {
				return nil, err
			}
			mn := rewrite.MNode{Kind: single[n.Op], Arg: p}
			switch n.Op {
			case ir.OpRegFileFIFO:
				mn.Depth = int(n.Val)
			case ir.OpRom:
				mn.Val = n.Val
			case ir.OpOutput:
				mn.Name = n.Name
			}
			mappedIdx[av] = add(mn)
		default:
			cm := covered[av]
			if cm == nil || cm.root != av {
				continue
			}
			pn := rewrite.MNode{
				Kind:      rewrite.KindPE,
				Rule:      cm.rule,
				DataIn:    map[int]int{},
				BitIn:     map[int]int{},
				ConstVals: map[int]uint16{},
				LUTTables: map[int]uint16{},
				Arg:       -1,
			}
			for pv, anode := range cm.inputMap {
				p, err := producerIdx(anode)
				if err != nil {
					return nil, err
				}
				if pos, ok := cm.rule.InputPorts[pv]; ok {
					pn.DataIn[pos] = p
				} else if pos, ok := cm.rule.BitPorts[pv]; ok {
					pn.BitIn[pos] = p
				} else {
					return nil, fmt.Errorf("rewrite: pattern input %d has no PE port", pv)
				}
			}
			for pv, anode := range cm.nodeMap {
				switch cm.rule.Pattern.Nodes[pv].Op {
				case ir.OpConst, ir.OpConstB:
					pn.ConstVals[cm.rule.ConstRegs[pv]] = app.Nodes[anode].Val
				case ir.OpLUT:
					pn.LUTTables[cm.rule.LUTUnits[pv]] = app.Nodes[anode].Val
				}
			}
			mappedIdx[av] = add(pn)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func legacyTopo(app *ir.Graph) []ir.NodeRef {
	state := make([]uint8, len(app.Nodes))
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
	for v := range app.Nodes {
		visit(ir.NodeRef(v))
	}
	return order
}
