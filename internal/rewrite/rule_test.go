package rewrite

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
)

func baselineSpec(t *testing.T, ops []ir.Op) *pe.Spec {
	t.Helper()
	dp := merge.BaselinePE(ops)
	return pe.FromDatapath("base", dp)
}

// macSpec merges a mul-add pattern into a small baseline — the archetypal
// "PE 2" of the paper.
func macSpec(t *testing.T) *pe.Spec {
	t.Helper()
	g := ir.NewGraph("mac")
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, a, b), c))
	pat, err := merge.FromPattern(g, "mac")
	if err != nil {
		t.Fatal(err)
	}
	base := merge.BaselinePE([]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAshr})
	return pe.FromDatapath("pe2", merge.Merge(base, pat, merge.Options{}))
}

func singleOpPattern(t *testing.T, op ir.Op) *ir.Graph {
	t.Helper()
	for _, np := range SingleOpPatterns([]ir.Op{op}) {
		if np.Name == op.Name() {
			return np.Graph
		}
	}
	t.Fatalf("no plain pattern for %s", op)
	return nil
}

func TestSynthesizeAddRule(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpSub})
	r, err := SynthesizeRule(s, singleOpPattern(t, ir.OpAdd), "add")
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("baseline PE cannot implement add?")
	}
	if r.Size != 1 || len(r.InputPorts) != 2 {
		t.Errorf("rule shape wrong: size=%d inputs=%d", r.Size, len(r.InputPorts))
	}
}

func TestSynthesizeAllBaselineOps(t *testing.T) {
	s := baselineSpec(t, ir.BaselineALUOps())
	for _, op := range ir.BaselineALUOps() {
		r, err := SynthesizeRule(s, singleOpPattern(t, op), op.Name())
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if r == nil {
			t.Errorf("baseline PE cannot implement %s", op)
		}
	}
}

func TestSynthesizeFailsForMissingOp(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd})
	r, err := SynthesizeRule(s, singleOpPattern(t, ir.OpMul), "mul")
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatal("add-only PE claimed to implement mul")
	}
}

func TestSynthesizeMACOnMergedPE(t *testing.T) {
	s := macSpec(t)
	g := ir.NewGraph("p")
	x := g.Input("x")
	y := g.Input("y")
	z := g.Input("z")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, x, y), z))
	r, err := SynthesizeRule(s, g, "mac")
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("merged PE cannot implement its own source pattern")
	}
	if r.Size != 2 {
		t.Errorf("MAC rule size = %d, want 2", r.Size)
	}
}

func TestSynthesizeConstVariant(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	g := ir.NewGraph("p")
	x := g.Input("x")
	g.Output("o", g.OpNode(ir.OpMul, x, g.Const(0)))
	r, err := SynthesizeRule(s, g, "mul_c1")
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("PE cannot implement mul-by-constant")
	}
	if len(r.ConstRegs) != 1 {
		t.Errorf("const regs = %d, want 1", len(r.ConstRegs))
	}
}

func TestSynthesizeCommutedOperands(t *testing.T) {
	// A pattern written as add(const, x) must still synthesize on the
	// lean baseline where constants only reach one port per side —
	// commutativity handling must find the swap.
	s := baselineSpec(t, []ir.Op{ir.OpAdd})
	g := ir.NewGraph("p")
	x := g.Input("x")
	g.Output("o", g.OpNode(ir.OpAdd, g.Const(0), x))
	r, err := SynthesizeRule(s, g, "add_c0")
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("commutative swap not found")
	}
}

func TestSynthesizeSelAndLUT(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpSel, ir.OpLUT, ir.OpAdd})
	for _, np := range SingleOpPatterns([]ir.Op{ir.OpSel, ir.OpLUT}) {
		r, err := SynthesizeRule(s, np.Graph, np.Name)
		if err != nil {
			t.Fatalf("%s: %v", np.Name, err)
		}
		if r == nil {
			t.Errorf("PE cannot implement %s", np.Name)
		}
	}
}

func TestRuleSetSynthesis(t *testing.T) {
	s := macSpec(t)
	g := ir.NewGraph("p")
	x := g.Input("x")
	y := g.Input("y")
	z := g.Input("z")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, x, y), z))
	rs, err := SynthesizeRuleSet(s, []NamedPattern{{Name: "mac", Graph: g}},
		[]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAshr})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) == 0 {
		t.Fatal("no rules")
	}
	// Complex rules must sort first (const variants of mac included).
	if rs.Rules[0].Size < 2 {
		t.Errorf("first rule = %s (size %d), want a complex rule", rs.Rules[0].Name, rs.Rules[0].Size)
	}
	names := map[string]bool{}
	for _, r := range rs.Rules {
		names[r.Name] = true
	}
	if !names["mac"] {
		t.Error("plain mac rule missing")
	}
	for _, op := range []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAshr} {
		if !rs.SupportsOp(op) {
			t.Errorf("rule set missing plain %s", op)
		}
	}
	// Variants needing more constant registers than the PE has (mac_cv7
	// wants three) legitimately fail; the plain pattern must not.
	for _, f := range rs.Failed {
		if f == "mac" {
			t.Error("plain mac pattern failed synthesis")
		}
	}
}

func TestSingleOpPatternsShape(t *testing.T) {
	pats := SingleOpPatterns([]ir.Op{ir.OpAdd, ir.OpSub, ir.OpSel})
	names := map[string]bool{}
	for _, p := range pats {
		names[p.Name] = true
		if err := p.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	for _, want := range []string{"add", "add_c1", "sub", "sub_c0", "sub_c1", "sel", "sel_c1", "sel_c2"} {
		if !names[want] {
			t.Errorf("missing pattern %s", want)
		}
	}
	if names["add_c0"] {
		t.Error("commutative add should not need a c0 variant")
	}
}

// TestVerifyTrialsDeterministic pins the randomized rule check's input
// vectors: the seeded draws land on the ports in ascending pattern-node
// order, so repeated verifications of one rule see identical vectors
// (map iteration order must not decide which port gets which value).
func TestVerifyTrialsDeterministic(t *testing.T) {
	// A pattern with several data inputs, a bit input and two constants.
	g := ir.NewGraph("p")
	a, b, c := g.Input("a"), g.Input("b"), g.Input("c")
	s := g.InputB("s")
	k0, k1 := g.Const(0), g.Const(0)
	sum := g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, a, k0), g.OpNode(ir.OpSub, b, k1))
	g.Output("o", g.OpNode(ir.OpSel, s, sum, c))
	dp, err := merge.FromPattern(g, "p")
	if err != nil {
		t.Fatal(err)
	}
	r, err := SynthesizeRule(pe.FromDatapath("p", dp), g, "p")
	if err != nil || r == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	if len(r.InputPorts) < 3 || len(r.BitPorts) < 1 || len(r.ConstRegs) < 2 {
		t.Fatalf("rule too small to pin draw order: %d inputs, %d bits, %d consts",
			len(r.InputPorts), len(r.BitPorts), len(r.ConstRegs))
	}
	type vector struct {
		Inputs          map[string]uint16
		InVals, BitVals map[int]uint16
		Consts          map[int]uint16
	}
	vectors := func() []vector {
		rng := &trialRand{}
		tr := newRuleTrials(r)
		var vs []vector
		for i := 0; i < verifyTrials; i++ {
			tr.draw(rng)
			v := vector{map[string]uint16{}, map[int]uint16{}, map[int]uint16{}, map[int]uint16{}}
			for _, p := range tr.ins {
				v.Inputs[r.Pattern.Nodes[p.v].Name] = tr.patVals[p.v]
				v.InVals[p.pos] = tr.inVals[p.pos]
			}
			for _, p := range tr.bits {
				v.Inputs[r.Pattern.Nodes[p.v].Name] = tr.patVals[p.v]
				v.BitVals[p.pos] = tr.bitVals[p.pos]
			}
			for _, cu := range r.ConstRegs {
				v.Consts[cu] = tr.prog.Consts[cu]
			}
			vs = append(vs, v)
		}
		return vs
	}
	want := vectors()
	for call := 0; call < 20; call++ {
		if got := vectors(); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d drew different trial vectors", call)
		}
	}
	if err := verifyRule(r); err != nil {
		t.Fatal(err)
	}
}

// TestTrialRandMatchesMathRand pins the shared-prefix trial generator to
// the seeded math/rand sequence it replays, inside the prefix and past it.
func TestTrialRandMatchesMathRand(t *testing.T) {
	want := rand.New(rand.NewSource(trialSeed))
	got := &trialRand{}
	for i := 0; i < 2*trialPrefixLen+7; i++ {
		n := 1 << 16
		if i%3 == 1 {
			n = 2
		}
		if w, g := uint16(want.Intn(n)), got.intn(int32(n)); g != w {
			t.Fatalf("draw %d (n=%d): got %d, math/rand %d", i, n, g, w)
		}
	}
}

// TestRuleTrialAllocs gates the randomized cross-check's trial loop:
// once a rule's trial state is built, drawing a vector and checking it
// on both models allocates nothing, for every rule of a specialized
// camera PE (LUTs, selects, constants and multi-op patterns included).
func TestRuleTrialAllocs(t *testing.T) {
	_, rs := cameraSpecRules(t)
	if len(rs.Rules) < 20 {
		t.Fatalf("only %d rules; the gate needs a real rule set", len(rs.Rules))
	}
	rng := &trialRand{}
	for _, r := range rs.Rules {
		tr := newRuleTrials(r)
		allocs := testing.AllocsPerRun(verifyTrials, func() {
			rng.i = 0 // stay inside the shared prefix
			tr.draw(rng)
			if err := tr.check(); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a trial allocated %v objects, want 0", r.Name, allocs)
		}
	}
}
