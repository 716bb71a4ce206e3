package rewrite

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/pe"
)

// convApp builds the Fig. 3 convolution as an application with IO.
func convApp() *ir.Graph {
	g := ir.NewGraph("conv")
	var acc ir.NodeRef = -1
	for k := 0; k < 4; k++ {
		in := g.Input(string(rune('a' + k)))
		w := g.Const(uint16(3 * (k + 1)))
		m := g.OpNode(ir.OpMul, in, w)
		if acc < 0 {
			acc = m
		} else {
			acc = g.OpNode(ir.OpAdd, acc, m)
		}
	}
	acc = g.OpNode(ir.OpAdd, acc, g.Const(9))
	g.Output("out", acc)
	return g
}

func mustRuleSet(t *testing.T, spec *pe.Spec, complex []NamedPattern, ops []ir.Op) *RuleSet {
	t.Helper()
	rs, err := SynthesizeRuleSet(spec, complex, ops)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestMapConvWithBaseline(t *testing.T) {
	app := convApp()
	spec := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	rs := mustRuleSet(t, spec, nil, []ir.Op{ir.OpAdd, ir.OpMul})
	m, err := MapApp(app, rs, "conv-baseline")
	if err != nil {
		t.Fatal(err)
	}
	// Baseline has no multi-op rules beyond const variants: every compute
	// node becomes one PE. conv has 4 muls + 4 adds = 8 compute nodes.
	if m.NumPEs() != 8 {
		t.Errorf("baseline PEs = %d, want 8 (one per op)", m.NumPEs())
	}
	if m.NumIO() != 5 {
		t.Errorf("IO = %d, want 5", m.NumIO())
	}
}

func TestMapConvWithMACPE(t *testing.T) {
	// A PE with a mul->add (MAC with constant weight) rule should cover
	// the convolution with fewer PEs.
	app := convApp()
	g := ir.NewGraph("p")
	x := g.Input("x")
	w := g.Const(0)
	c := g.Input("c")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, x, w), c))
	pat, err := merge.FromPattern(g, "macc")
	if err != nil {
		t.Fatal(err)
	}
	base := merge.BaselinePE([]ir.Op{ir.OpAdd, ir.OpMul})
	spec := pe.FromDatapath("pe2", merge.Merge(base, pat, merge.Options{}))
	rs := mustRuleSet(t, spec, []NamedPattern{{Name: "macc", Graph: g}}, []ir.Op{ir.OpAdd, ir.OpMul})
	m, err := MapApp(app, rs, "conv-mac")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPEs() >= 8 {
		t.Errorf("MAC PEs = %d, want < 8", m.NumPEs())
	}
	// Mapped graph must compute the same function.
	checkEquivalence(t, app, m, 40)
}

// checkEquivalence verifies Mapped.Eval == app.Eval on random inputs.
func checkEquivalence(t *testing.T, app *ir.Graph, m *Mapped, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		inputs := map[string]uint16{}
		for _, in := range app.Inputs() {
			inputs[app.Nodes[in].Name] = uint16(rng.Intn(1 << 16))
		}
		want, err := app.Eval(inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Eval(inputs)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("trial %d: output %s: mapped %d != app %d", trial, name, got[name], w)
			}
		}
	}
}

// TestMapSharedPatternConstant: a pattern constant feeding two ops is
// one constant unit on the PE, so add(mul(x,k),k) may cover
// add(mul(a,3),3) but not add(mul(a,3),5) — which must still map, op by
// op, to a design computing a*3+5.
func TestMapSharedPatternConstant(t *testing.T) {
	ops := []ir.Op{ir.OpAdd, ir.OpMul}
	g := ir.NewGraph("p")
	k := g.Const(0)
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, g.Input("x"), k), k))
	pat, err := merge.FromPattern(g, "mulk_addk")
	if err != nil {
		t.Fatal(err)
	}
	spec := pe.FromDatapath("pe_k", merge.Merge(merge.BaselinePE(ops), pat, merge.Options{}))
	rs := mustRuleSet(t, spec, []NamedPattern{{Name: "mulk_addk", Graph: g}}, ops)
	for _, c := range []struct {
		add uint16
		pes int
	}{{3, 1}, {5, 2}} {
		app := ir.NewGraph("app")
		a := app.Input("a")
		app.Output("y", app.OpNode(ir.OpAdd, app.OpNode(ir.OpMul, a, app.Const(3)), app.Const(c.add)))
		m, err := MapApp(app, rs, "shared-const")
		if err != nil {
			t.Fatal(err)
		}
		if m.NumPEs() != c.pes {
			t.Errorf("add constant %d: %d PEs, want %d", c.add, m.NumPEs(), c.pes)
		}
		checkEquivalence(t, app, m, 20)
	}
}

func TestMapBaselineEquivalence(t *testing.T) {
	app := convApp()
	spec := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	rs := mustRuleSet(t, spec, nil, []ir.Op{ir.OpAdd, ir.OpMul})
	m, err := MapApp(app, rs, "conv")
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, app, m, 40)
}

func TestMapFailsWithoutOp(t *testing.T) {
	app := convApp()
	spec := baselineSpec(t, []ir.Op{ir.OpAdd}) // no mul
	rs := mustRuleSet(t, spec, nil, []ir.Op{ir.OpAdd})
	if _, err := MapApp(app, rs, "conv"); err == nil {
		t.Fatal("expected mapping failure for missing mul")
	}
}

func TestMapPreservesMemoryAndIO(t *testing.T) {
	app := apps.Gaussian()
	spec := baselineSpec(t, ir.BaselineALUOps())
	rs := mustRuleSet(t, spec, nil, ir.BaselineALUOps())
	m, err := MapApp(app.Graph, rs, "gaussian")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumMems() != app.MemNodes() {
		t.Errorf("mems = %d, want %d", m.NumMems(), app.MemNodes())
	}
	if m.NumIO() != app.IONodes() {
		t.Errorf("IO = %d, want %d", m.NumIO(), app.IONodes())
	}
	if m.NumPEs() != app.ComputeOps() {
		t.Errorf("baseline PEs = %d, want %d (one per compute op)", m.NumPEs(), app.ComputeOps())
	}
}

func TestMapAllAppsWithBaselineEquivalence(t *testing.T) {
	spec := baselineSpec(t, ir.BaselineALUOps())
	rs := mustRuleSet(t, spec, nil, ir.BaselineALUOps())
	for _, a := range apps.All() {
		m, err := MapApp(a.Graph, rs, a.Name)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		checkEquivalence(t, a.Graph, m, 5)
	}
}

// TestEndToEndCameraSpecialization is the core APEX integration test:
// mine the camera pipeline, rank by MIS, merge the best subgraphs into
// the app-restricted baseline (the paper's PE 2), synthesize the compiler,
// map the application, and verify functional equivalence plus a PE-count
// reduction.
func TestEndToEndCameraSpecialization(t *testing.T) {
	app := apps.Camera()
	view, _ := mining.ComputeView(app.Graph)
	pats, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: 8, MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("no patterns mined from camera")
	}
	ranked := mis.Rank(context.Background(), pats)

	ops := append(app.UsedOps(), ir.OpLUT, ir.OpSel)
	base := merge.BaselinePE(ops)
	baseSpec := pe.FromDatapath("pe1", base)
	baseRules := mustRuleSet(t, baseSpec, nil, ops)
	m1, err := MapApp(app.Graph, baseRules, "camera-pe1")
	if err != nil {
		t.Fatal(err)
	}

	// PE 2: merge the top-MIS subgraph into PE 1.
	np, err := PatternFromMined(ranked[0].Pattern.Graph, "best")
	if err != nil {
		t.Fatal(err)
	}
	patDP, err := merge.FromPattern(np.Graph, "best")
	if err != nil {
		t.Fatal(err)
	}
	merged := merge.Merge(base, patDP, merge.Options{})
	spec2 := pe.FromDatapath("pe2", merged)
	rules2, err := SynthesizeRuleSet(spec2, []NamedPattern{np}, ops)
	if err != nil {
		t.Fatal(err)
	}
	hasComplex := false
	for _, r := range rules2.Rules {
		if r.Size >= 2 {
			hasComplex = true
		}
	}
	if !hasComplex {
		t.Fatal("PE2 rule set has no complex rule")
	}
	for _, failed := range rules2.Failed {
		if failed == "best" {
			t.Fatal("PE2 cannot implement its own source pattern")
		}
	}
	m2, err := MapApp(app.Graph, rules2, "camera-pe2")
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumPEs() >= m1.NumPEs() {
		t.Errorf("PE2 mapping used %d PEs, not fewer than PE1's %d", m2.NumPEs(), m1.NumPEs())
	}
	t.Logf("camera: PE1 %d PEs -> PE2 %d PEs (top pattern MIS=%d, size=%d)",
		m1.NumPEs(), m2.NumPEs(), ranked[0].MISSize, ranked[0].Pattern.ComputeSize())
	checkEquivalence(t, app.Graph, m2, 10)
}

func TestMappedValidateAndTopo(t *testing.T) {
	app := convApp()
	spec := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	rs := mustRuleSet(t, spec, nil, []ir.Op{ir.OpAdd, ir.OpMul})
	m, err := MapApp(app, rs, "conv")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := m.TopoOrder()
	pos := make(map[int]int)
	for i, v := range topo {
		pos[v] = i
	}
	for i := range m.Nodes {
		for _, p := range m.Nodes[i].Producers() {
			if pos[p] >= pos[i] {
				t.Fatalf("topo violation: %d before %d", p, i)
			}
		}
	}
}

func BenchmarkMapCameraBaseline(b *testing.B) {
	app := apps.Camera()
	dp := merge.BaselinePE(ir.BaselineALUOps())
	spec := pe.FromDatapath("base", dp)
	rs, err := SynthesizeRuleSet(spec, nil, ir.BaselineALUOps())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapApp(app.Graph, rs, "camera"); err != nil {
			b.Fatal(err)
		}
	}
}

// cameraSpecRules builds camera's specialized PE the way the pipeline
// does (mine, rank by MIS, merge the top three subgraphs into the
// app-restricted baseline) and synthesizes its rule set.
func cameraSpecRules(t testing.TB) (*apps.App, *RuleSet) {
	t.Helper()
	app := apps.Camera()
	view, _ := mining.ComputeView(app.Graph)
	pats, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: 8, MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	ranked := mis.Rank(context.Background(), pats)
	ops := append(app.UsedOps(), ir.OpLUT, ir.OpSel)
	dp := merge.BaselinePE(ops)
	var named []NamedPattern
	for i := 0; i < 3 && i < len(ranked); i++ {
		np, err := PatternFromMined(ranked[i].Pattern.Graph, fmt.Sprintf("sg%d", i))
		if err != nil {
			t.Fatal(err)
		}
		pdp, err := merge.FromPattern(np.Graph, np.Name)
		if err != nil {
			t.Fatal(err)
		}
		dp = merge.Merge(dp, pdp, merge.Options{})
		named = append(named, np)
	}
	rs, err := SynthesizeRuleSet(pe.FromDatapath("camera_spec", dp), named, ops)
	if err != nil {
		t.Fatal(err)
	}
	return app, rs
}

// TestMatchAllocs gates the instruction selector's undo trail: once the
// matcher's scratch has grown, a failing tryMatch attempt allocates
// nothing, however deep it bound before failing. Only a successful match
// allocates (its committed bindings).
func TestMatchAllocs(t *testing.T) {
	app, rs := cameraSpecRules(t)
	type attempt struct {
		rule *Rule
		av   ir.NodeRef
	}
	mt := newMatcher(app.Graph, rs.Rules)
	var failing []attempt
	for _, rule := range rs.Rules {
		for _, av := range reverseTopo(app.Graph) {
			if app.Graph.Nodes[av].Op == app0Op(rule) && mt.tryMatch(rule, av) == nil {
				failing = append(failing, attempt{rule, av})
			}
		}
	}
	if len(failing) < 100 {
		t.Fatalf("only %d failing attempts on camera; the gate needs a real workload", len(failing))
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, a := range failing {
			if mt.tryMatch(a.rule, a.av) != nil {
				t.Fatal("attempt that failed before now succeeds")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d failing attempts allocated %v objects, want 0", len(failing), allocs)
	}
}

// TestMapConstantOutput: an output that ir.Optimize folds to a constant
// (here y0 = (x0 - x0) + 5) maps to a constant-driven output node beside
// an ordinary one, and the mapped graph computes what the application
// does. A structural node reading a constant is still refused, with an
// error that names it.
func TestMapConstantOutput(t *testing.T) {
	g := ir.NewGraph("constout")
	x := g.Input("x0")
	g.Output("y0", g.OpNode(ir.OpAdd, g.OpNode(ir.OpSub, x, x), g.Const(5)))
	g.Output("y1", g.OpNode(ir.OpAdd, x, g.Const(1)))
	app := ir.Optimize(g)
	spec := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpSub})
	rs := mustRuleSet(t, spec, nil, []ir.Op{ir.OpAdd, ir.OpSub})
	m, err := MapApp(app, rs, "constout")
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for i := range m.Nodes {
		if n := &m.Nodes[i]; n.Kind == KindOutput && n.Arg < 0 {
			consts++
			if n.Name != "y0" || n.Val != 5 || len(n.Producers()) != 0 {
				t.Errorf("constant output %+v, want y0 driving 5 with no producer", *n)
			}
		}
	}
	if consts != 1 || m.NumPEs() != 1 {
		t.Fatalf("%d constant outputs, %d PEs; want 1 and 1", consts, m.NumPEs())
	}
	for _, v := range []uint16{0, 7, 0xffff} {
		in := map[string]uint16{"x0": v}
		got, err := m.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := app.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got["y0"] != want["y0"] || got["y1"] != want["y1"] {
			t.Errorf("x0=%d: mapped %v, app %v", v, got, want)
		}
	}

	r := ir.NewGraph("constreg")
	r.Output("y", r.Reg(r.Const(3)))
	if _, err := MapApp(r, rs, "constreg"); err == nil || !strings.Contains(err.Error(), "is constant 3") {
		t.Errorf("register of a constant: error %v, want it to name the constant", err)
	}
}

// TestValidateRejectsNegativePosition: a port entry is a producer or
// -1 for an unwired port, and Producers skips every negative entry, so
// Validate must refuse an entry below -1 before anything walks it.
func TestValidateRejectsNegativePosition(t *testing.T) {
	m := &Mapped{Nodes: []MNode{
		{Kind: KindInput, Name: "x", Arg: -1},
		{Kind: KindPE, DataIn: []int{0}, BitIn: []int{-2}, Arg: -1},
	}}
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "references -2 out of range") {
		t.Fatalf("Validate = %v, want an out-of-range port error", err)
	}
	m.Nodes[1].BitIn = []int{-1, -1, 0}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Nodes[1].Producers(); len(got) != 2 {
		t.Fatalf("Producers = %v, want both wired ports", got)
	}
	if d, b := m.Nodes[1].WiredInputs(); d != 1 || b != 1 {
		t.Fatalf("WiredInputs = %d, %d, want 1, 1", d, b)
	}
}

// TestMapRejectsNegativePort: a rule whose port table names a negative
// position (only a corrupt stored rule can) fails the mapping with an
// error instead of indexing a port slice with it.
func TestMapRejectsNegativePort(t *testing.T) {
	spec := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	rs := mustRuleSet(t, spec, nil, []ir.Op{ir.OpAdd, ir.OpMul})
	bad := *rs
	bad.Rules = make([]*Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		c := *r
		c.InputPorts = map[ir.NodeRef]int{}
		for pv, pos := range r.InputPorts {
			c.InputPorts[pv] = -1 - pos
		}
		bad.Rules[i] = &c
	}
	if _, err := MapApp(convApp(), &bad, "conv"); err == nil || !strings.Contains(err.Error(), "negative PE port") {
		t.Fatalf("MapApp = %v, want a negative-port error", err)
	}
}
