package pe

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/tech"
)

func baselineSpec(t *testing.T, ops []ir.Op) *Spec {
	t.Helper()
	dp := merge.BaselinePE(ops)
	if err := dp.Validate(); err != nil {
		t.Fatal(err)
	}
	return FromDatapath("base", dp)
}

func TestFromDatapathRoles(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	if len(s.Inputs) != 2 || len(s.InputsB) != 3 || len(s.Outputs) != 1 {
		t.Fatalf("roles: in=%d inb=%d out=%d", len(s.Inputs), len(s.InputsB), len(s.Outputs))
	}
	if len(s.FUs) != 2 {
		t.Fatalf("FUs = %d, want 2 (addsub + mul)", len(s.FUs))
	}
	if len(s.Consts) != 5 {
		t.Fatalf("consts = %d, want 5 (2 word + 3 bit)", len(s.Consts))
	}
}

// configureAdd builds the configuration computing in0 + in1.
func configureAdd(t *testing.T, s *Spec) Config {
	t.Helper()
	var addFU = -1
	for _, f := range s.FUs {
		if s.DP.Units[f].SupportsOp(ir.OpAdd) {
			addFU = f
		}
	}
	if addFU < 0 {
		t.Fatal("no add FU")
	}
	cfg := NewConfig()
	cfg.OpSel[addFU] = ir.OpAdd
	for p := 0; p < 2; p++ {
		found := false
		for _, src := range s.PortSources(addFU, p) {
			if s.DP.Units[src].Kind == merge.UnitInput {
				cfg.PortSel[[2]int{addFU, p}] = src
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("port %d has no input source", p)
		}
	}
	out := s.Outputs[0]
	cfg.OutSel[out] = addFU
	if err := s.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestEvaluateAdd(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpMul})
	cfg := configureAdd(t, s)
	outs, err := s.Evaluate(cfg, map[int]uint16{0: 30, 1: 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[s.Outputs[0]] != 42 {
		t.Fatalf("30+12 = %d", outs[s.Outputs[0]])
	}
}

func TestEvaluateConstRegister(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd})
	addFU := s.FUs[0]
	cfg := NewConfig()
	cfg.OpSel[addFU] = ir.OpAdd
	// in0 on port0, const reg on port1.
	var constSrc = -1
	for _, src := range s.PortSources(addFU, 1) {
		if s.DP.Units[src].Kind == merge.UnitConst {
			constSrc = src
		}
	}
	if constSrc < 0 {
		t.Fatal("port1 has no const source")
	}
	var inSrc = -1
	for _, src := range s.PortSources(addFU, 0) {
		if s.DP.Units[src].Kind == merge.UnitInput {
			inSrc = src
		}
	}
	cfg.PortSel[[2]int{addFU, 0}] = inSrc
	cfg.PortSel[[2]int{addFU, 1}] = constSrc
	cfg.ConstVals[constSrc] = 100
	cfg.OutSel[s.Outputs[0]] = addFU
	outs, err := s.Evaluate(cfg, map[int]uint16{0: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[s.Outputs[0]] != 111 {
		t.Fatalf("11+100 = %d", outs[s.Outputs[0]])
	}
}

func TestValidateRejectsIllegalSelection(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd})
	cfg := NewConfig()
	cfg.PortSel[[2]int{s.FUs[0], 0}] = 9999
	if err := s.Validate(cfg); err == nil {
		t.Fatal("expected illegal port selection error")
	}
	cfg2 := NewConfig()
	cfg2.OpSel[s.FUs[0]] = ir.OpMul // addsub unit cannot mul
	if err := s.Validate(cfg2); err == nil {
		t.Fatal("expected illegal op selection error")
	}
}

func TestSymbolicEvalMatchesEvaluate(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd, ir.OpSub})
	cfg := configureAdd(t, s)
	exprs, err := s.SymbolicEval(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	e := exprs[s.Outputs[0]]
	want := ir.Apply(ir.OpAdd, 0, ir.Var("in0"), ir.Var("in1"))
	if e.Key() != want.Key() {
		t.Fatalf("symbolic = %q, want %q", e.Key(), want.Key())
	}
}

func TestEvaluateUnconfiguredFails(t *testing.T) {
	s := baselineSpec(t, []ir.Op{ir.OpAdd})
	cfg := NewConfig()
	cfg.OutSel[s.Outputs[0]] = s.FUs[0]
	// Op not selected is fine only for single-op units; addsub with one
	// op (add) auto-selects, but its ports are unconfigured.
	if _, err := s.Evaluate(cfg, nil, nil); err == nil {
		t.Fatal("expected unconfigured port error")
	}
}

func TestConfigBitsPositive(t *testing.T) {
	s := baselineSpec(t, ir.BaselineALUOps())
	if s.ConfigBits() < 40 {
		t.Errorf("baseline config bits = %d, implausibly small", s.ConfigBits())
	}
}

func TestCriticalPathDominatedByMultiplier(t *testing.T) {
	m := tech.Default()
	s := baselineSpec(t, ir.BaselineALUOps())
	cp := s.CriticalPathPS(m)
	mulDelay := m.HWClassCost("mul").Delay
	if cp < mulDelay {
		t.Errorf("critical path %.0f below multiplier delay %.0f", cp, mulDelay)
	}
	if cp > tech.ClockPeriodPS {
		t.Errorf("single-level baseline PE path %.0f exceeds clock %.0f", cp, tech.ClockPeriodPS)
	}
}

func TestActivationEnergyScalesWithOps(t *testing.T) {
	m := tech.Default()
	s := baselineSpec(t, ir.BaselineALUOps())
	e1 := s.ActivationEnergy([]ir.Op{ir.OpAdd}, m)
	e2 := s.ActivationEnergy([]ir.Op{ir.OpAdd, ir.OpMul, ir.OpAdd}, m)
	if e2 <= e1 {
		t.Errorf("3-op activation (%.3f) not above 1-op (%.3f)", e2, e1)
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	c := NewConfig()
	c.OpSel[1] = ir.OpAdd
	d := c.Clone()
	d.OpSel[1] = ir.OpSub
	d.ConstVals[0] = 5
	if c.OpSel[1] != ir.OpAdd || len(c.ConstVals) != 0 {
		t.Error("Clone shares storage")
	}
}

// TestActivationEnergyAllocs: a PE activation's energy reads the mux
// fan-in FromDatapath counted once, so it allocates nothing, and that
// count is the one Datapath.Count reports, on a datapath with muxes.
func TestActivationEnergyAllocs(t *testing.T) {
	m := tech.Default()
	g := ir.NewGraph("mac")
	g.Output("o", g.OpNode(ir.OpAdd, g.OpNode(ir.OpMul, g.Input("a"), g.Input("b")), g.Input("c")))
	pdp, err := merge.FromPattern(g, "mac")
	if err != nil {
		t.Fatal(err)
	}
	s := FromDatapath("merged", merge.Merge(merge.BaselinePE(ir.BaselineALUOps()), pdp, merge.Options{Tech: m}))
	if c := s.DP.Count(); c.MuxFanin == 0 || s.muxFanin != c.MuxFanin {
		t.Fatalf("mux fan-in %d, Datapath.Count says %d", s.muxFanin, c.MuxFanin)
	}
	ops := []ir.Op{ir.OpMul, ir.OpAdd}
	if allocs := testing.AllocsPerRun(100, func() { s.ActivationEnergy(ops, m) }); allocs != 0 {
		t.Fatalf("ActivationEnergy allocated %v objects, want 0", allocs)
	}
}
