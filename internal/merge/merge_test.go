package merge

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/tech"
)

// patternMulAdd builds the datapath of out = in0*in1 + in2.
func patternMulAdd(t *testing.T) *Datapath {
	t.Helper()
	g := ir.NewGraph("p")
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	m := g.OpNode(ir.OpMul, a, b)
	s := g.OpNode(ir.OpAdd, m, c)
	g.Output("o", s)
	d, err := FromPattern(g, "muladd")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// patternConstAddAdd builds the paper's Fig. 5a shape: two chained adds
// with a constant feeding the second: out = (in0 + in1) + const.
func patternConstAddAdd(t *testing.T) *Datapath {
	t.Helper()
	g := ir.NewGraph("p")
	x := g.Input("x")
	y := g.Input("y")
	a2 := g.OpNode(ir.OpAdd, x, y)
	c := g.Const(7)
	a1 := g.OpNode(ir.OpAdd, a2, c)
	g.Output("o", a1)
	d, err := FromPattern(g, "addadd")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// patternShlAddAdd builds the Fig. 5b shape: out = (in0<<in1 + in2) + const.
func patternShlAddAdd(t *testing.T) *Datapath {
	t.Helper()
	g := ir.NewGraph("p")
	x := g.Input("x")
	s := g.Input("s")
	y := g.Input("y")
	sh := g.OpNode(ir.OpShl, x, s)
	b3 := g.OpNode(ir.OpAdd, sh, y)
	c := g.Const(3)
	b2 := g.OpNode(ir.OpAdd, b3, c)
	g.Output("o", b2)
	d, err := FromPattern(g, "shladd")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromPatternStructure(t *testing.T) {
	d := patternMulAdd(t)
	c := d.Count()
	if c.FUs != 2 || c.Inputs != 3 || c.Outputs != 1 {
		t.Fatalf("counts = %+v, want 2 FUs, 3 inputs, 1 output", c)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Muxes != 0 {
		t.Errorf("fresh pattern should have no muxes, got %d", c.Muxes)
	}
}

func TestMergeIdenticalPatternsSharesEverything(t *testing.T) {
	m := tech.Default()
	a := patternMulAdd(t)
	b := patternMulAdd(t)
	merged := Merge(a, b, Options{})
	ca, cm := a.Count(), merged.Count()
	if cm.FUs != ca.FUs {
		t.Errorf("merging identical patterns grew FUs: %d -> %d", ca.FUs, cm.FUs)
	}
	if cm.Inputs != ca.Inputs || cm.Outputs != ca.Outputs {
		t.Errorf("merging identical patterns grew IO: %+v -> %+v", ca, cm)
	}
	if got, want := merged.Area(m), a.Area(m); got > want*1.01 {
		t.Errorf("merged area %.1f exceeds single pattern %.1f", got, want)
	}
}

// TestFig5Merge reproduces the paper's Fig. 5: merging (add,add,const)
// with (shl,add,add,const) must share the constant and both adders, so
// the merged datapath has exactly one extra FU (the shifter).
func TestFig5Merge(t *testing.T) {
	a := patternConstAddAdd(t)
	b := patternShlAddAdd(t)
	merged := Merge(a, b, Options{})
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	c := merged.Count()
	if c.FUs != 3 {
		t.Errorf("merged FUs = %d, want 3 (2 shared adds + shl)", c.FUs)
	}
	if c.Consts != 1 {
		t.Errorf("merged consts = %d, want 1 (shared)", c.Consts)
	}
	if c.Outputs != 1 {
		t.Errorf("merged outputs = %d, want 1 (shared)", c.Outputs)
	}
	// A multiplexer must appear where the two paths diverge.
	if c.Muxes == 0 {
		t.Error("expected at least one mux in the merged datapath")
	}
}

func TestMergeCheaperThanUnion(t *testing.T) {
	m := tech.Default()
	a := patternConstAddAdd(t)
	b := patternShlAddAdd(t)
	merged := Merge(a, b, Options{})
	union := DisjointUnion(a, b)
	if merged.Area(m) >= union.Area(m) {
		t.Errorf("merge (%.1f) not cheaper than union (%.1f)", merged.Area(m), union.Area(m))
	}
}

func TestMergePreservesBothSourcesStructurally(t *testing.T) {
	// Every wire of each source must exist in the merged datapath under
	// some unit mapping. Check the weaker but decisive structural
	// property: the merged datapath has at least as many wires into every
	// port pattern as each source requires, and both sources are recorded.
	a := patternConstAddAdd(t)
	b := patternShlAddAdd(t)
	merged := Merge(a, b, Options{})
	if len(merged.Sources) != 2 {
		t.Fatalf("sources = %v", merged.Sources)
	}
	// The merged graph must be able to host each source as a subgraph:
	// count op capability.
	needAdd := 2
	haveAdd := 0
	haveShl := 0
	for _, u := range merged.Units {
		if u.Kind == UnitOp && u.SupportsOp(ir.OpAdd) {
			haveAdd++
		}
		if u.Kind == UnitOp && u.SupportsOp(ir.OpShl) {
			haveShl++
		}
	}
	if haveAdd < needAdd || haveShl < 1 {
		t.Errorf("merged lacks capability: %d adds (need %d), %d shls (need 1)", haveAdd, needAdd, haveShl)
	}
}

func TestMergeDifferentClassesDoesNotFuse(t *testing.T) {
	// mul and add must never share a functional unit.
	g1 := ir.NewGraph("m")
	x := g1.Input("x")
	y := g1.Input("y")
	g1.Output("o", g1.OpNode(ir.OpMul, x, y))
	d1, _ := FromPattern(g1, "mul")

	g2 := ir.NewGraph("a")
	p := g2.Input("p")
	q := g2.Input("q")
	g2.Output("o", g2.OpNode(ir.OpAdd, p, q))
	d2, _ := FromPattern(g2, "add")

	merged := Merge(d1, d2, Options{})
	for _, u := range merged.Units {
		if u.Kind == UnitOp && u.SupportsOp(ir.OpMul) && u.SupportsOp(ir.OpAdd) {
			t.Fatal("mul and add fused onto one unit")
		}
	}
	c := merged.Count()
	if c.FUs != 2 {
		t.Errorf("FUs = %d, want 2", c.FUs)
	}
	// Inputs should share (2 inputs serve both ops).
	if c.Inputs != 2 {
		t.Errorf("inputs = %d, want 2 (shared)", c.Inputs)
	}
}

func TestAddSubShareAdder(t *testing.T) {
	g1 := ir.NewGraph("a")
	x := g1.Input("x")
	y := g1.Input("y")
	g1.Output("o", g1.OpNode(ir.OpAdd, x, y))
	d1, _ := FromPattern(g1, "add")

	g2 := ir.NewGraph("s")
	p := g2.Input("p")
	q := g2.Input("q")
	g2.Output("o", g2.OpNode(ir.OpSub, p, q))
	d2, _ := FromPattern(g2, "sub")

	merged := Merge(d1, d2, Options{})
	c := merged.Count()
	if c.FUs != 1 {
		t.Fatalf("FUs = %d, want 1 (add/sub share the adder)", c.FUs)
	}
	u := -1
	for i, un := range merged.Units {
		if un.Kind == UnitOp {
			u = i
		}
	}
	if !merged.Units[u].SupportsOp(ir.OpAdd) || !merged.Units[u].SupportsOp(ir.OpSub) {
		t.Error("shared unit lost an op")
	}
}

func TestMergeAllFold(t *testing.T) {
	dps := []*Datapath{patternMulAdd(t), patternConstAddAdd(t), patternShlAddAdd(t)}
	merged := MergeAll(dps, Options{})
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(merged.Sources) != 3 {
		t.Errorf("sources = %v", merged.Sources)
	}
	m := tech.Default()
	union := DisjointUnion(DisjointUnion(dps[0], dps[1]), dps[2])
	if merged.Area(m) >= union.Area(m) {
		t.Errorf("3-way merge (%.1f) not cheaper than union (%.1f)", merged.Area(m), union.Area(m))
	}
}

func TestBaselinePEComplete(t *testing.T) {
	d := BaselinePE(ir.BaselineALUOps())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	c := d.Count()
	if c.Inputs != 2 || c.InputsB != 3 || c.Outputs != 1 {
		t.Errorf("baseline IO = %+v", c)
	}
	// Every baseline op must be supported by some unit.
	for _, op := range ir.BaselineALUOps() {
		found := false
		for _, u := range d.Units {
			if u.Kind == UnitOp && u.SupportsOp(op) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("baseline PE missing op %s", op)
		}
	}
}

func TestBaselinePERestrictedSmaller(t *testing.T) {
	m := tech.Default()
	full := BaselinePE(ir.BaselineALUOps())
	restricted := BaselinePE([]ir.Op{ir.OpAdd, ir.OpMul})
	if restricted.Area(m) >= full.Area(m) {
		t.Errorf("restricted PE (%.1f) not smaller than full (%.1f)",
			restricted.Area(m), full.Area(m))
	}
}

func TestMergePatternIntoBaseline(t *testing.T) {
	// PE 2 = baseline(PE 1) + the best subgraph: the pattern's adds/muls
	// should fuse with the baseline's addsub/mul units where profitable,
	// and the merged PE must still support every baseline op.
	base := BaselinePE([]ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAshr})
	pat := patternMulAdd(t)
	merged := Merge(base, pat, Options{})
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAshr} {
		found := false
		for _, u := range merged.Units {
			if u.Kind == UnitOp && u.SupportsOp(op) {
				found = true
			}
		}
		if !found {
			t.Errorf("merged PE lost baseline op %s", op)
		}
	}
	m := tech.Default()
	if merged.Area(m) >= base.Area(m)+pat.Area(m) {
		t.Error("merging into baseline saved nothing")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := patternMulAdd(t)
	c := a.Clone()
	c.Units[0].Kind = UnitOutput
	c.Wires = append(c.Wires, Wire{From: 0, To: 1, Port: 0})
	if a.Units[0].Kind == UnitOutput {
		t.Error("clone shares unit storage")
	}
}

func TestCompatibilityRejectsConflicts(t *testing.T) {
	x := cand{kind: candNode, pairs: [][2]int{{0, 1}}}
	y := cand{kind: candNode, pairs: [][2]int{{0, 2}}}
	if compatible(&x, &y) {
		t.Error("one a-node mapped to two b-nodes accepted")
	}
	z := cand{kind: candNode, pairs: [][2]int{{3, 1}}}
	if compatible(&x, &z) {
		t.Error("one b-node claimed by two a-nodes accepted")
	}
	w := cand{kind: candNode, pairs: [][2]int{{0, 1}}}
	if !compatible(&x, &w) {
		t.Error("identical mappings should be compatible")
	}
}

func TestMergedAreaMonotone(t *testing.T) {
	// Merged datapath contains A entirely, so area must not shrink below
	// A's area; and it must not exceed the disjoint union.
	m := tech.Default()
	a := BaselinePE([]ir.Op{ir.OpAdd, ir.OpMul})
	b := patternMulAdd(t)
	merged := Merge(a, b, Options{})
	if merged.Area(m) < a.Area(m) {
		t.Errorf("merged area %.1f below A %.1f", merged.Area(m), a.Area(m))
	}
	if merged.Area(m) > DisjointUnion(a, b).Area(m) {
		t.Errorf("merged area above union")
	}
}

func TestWiresSortedDeterministic(t *testing.T) {
	a := patternConstAddAdd(t)
	b := patternShlAddAdd(t)
	m1 := Merge(a, b, Options{})
	m2 := Merge(a, b, Options{})
	if len(m1.Wires) != len(m2.Wires) {
		t.Fatal("nondeterministic merge")
	}
	for i := range m1.Wires {
		if m1.Wires[i] != m2.Wires[i] {
			t.Fatal("wire order nondeterministic")
		}
	}
}

func TestUnitString(t *testing.T) {
	u := Unit{Kind: UnitOp, Ops: []ir.Op{ir.OpAdd, ir.OpSub}, Class: "addsub"}
	if u.String() != "add/sub" {
		t.Errorf("String = %q", u.String())
	}
}

var _ = graph.New // keep the import meaningful if helpers change
