package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
	"repro/internal/rewrite"
)

// fastSuiteVariants runs one fast-mode suite and returns every PE
// variant it built, by name.
func fastSuiteVariants(t *testing.T) (*Harness, []*core.PEVariant) {
	t.Helper()
	h := NewHarness()
	h.FastMode = true
	if _, err := h.Suite(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	var variants []*core.PEVariant
	h.variants.Each(func(_ string, v *core.PEVariant, err error) {
		if err == nil {
			variants = append(variants, v)
		}
	})
	sort.Slice(variants, func(i, j int) bool { return variants[i].Name < variants[j].Name })
	if len(variants) < 10 {
		t.Fatalf("suite built only %d variants", len(variants))
	}
	return h, variants
}

// TestCompileMatchesLegacyEvaluate drives Spec.Evaluate (Compile, then
// Run) and a frozen copy of the map-based evaluator it replaced over
// random configurations of every suite variant's spec: the same outputs
// on success, the same error text on failure. The configurations mix
// legal selections with arbitrary source units, so all four
// configuration errors occur; an unconfigured output is only reachable
// from another output, so a two-output union of two suite datapaths
// joins the specs.
func TestCompileMatchesLegacyEvaluate(t *testing.T) {
	_, variants := fastSuiteVariants(t)
	var specs []*pe.Spec
	for _, v := range variants {
		specs = append(specs, v.Spec)
	}
	specs = append(specs, pe.FromDatapath("union", merge.DisjointUnion(variants[0].Spec.DP, variants[1].Spec.DP)))
	rng := rand.New(rand.NewSource(17))
	seen := map[string]int{}
	for _, s := range specs {
		for trial := 0; trial < 1000; trial++ {
			c := randomConfig(rng, s)
			in, bits := map[int]uint16{}, map[int]uint16{}
			for k := 0; k <= len(s.Inputs); k++ { // one position past the end
				in[k] = uint16(rng.Intn(1 << 16))
			}
			for k := range s.InputsB {
				bits[k] = uint16(rng.Intn(4))
			}
			want, werr := legacyEvaluate(s, c, in, bits)
			got, gerr := s.Evaluate(c, in, bits)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s trial %d: error %v, legacy %v", s.Name, trial, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: outputs %v, legacy %v", s.Name, trial, got, want)
			}
			p, cerr := s.Compile(c)
			if fmt.Sprint(cerr) != fmt.Sprint(werr) {
				t.Fatalf("%s trial %d: Compile error %v, legacy %v", s.Name, trial, cerr, werr)
			}
			if werr != nil {
				seen[errorClass(werr)]++
				continue
			}
			seen["ok"]++
			inPos, bitPos := make([]uint16, len(s.Inputs)), make([]uint16, len(s.InputsB))
			for k := range inPos {
				inPos[k] = in[k]
			}
			for k := range bitPos {
				bitPos[k] = bits[k]
			}
			p.Run(inPos, bitPos)
			for o, w := range want {
				if p.Out(o) != w {
					t.Fatalf("%s trial %d: output %d = %d, legacy %d", s.Name, trial, o, p.Out(o), w)
				}
			}
		}
	}
	for _, class := range []string{"ok", "cycle", "no op", "port unconfigured", "output unconfigured"} {
		if seen[class] == 0 {
			t.Errorf("no configuration hit %q (%v)", class, seen)
		}
	}
	t.Logf("%d specs: %v", len(specs), seen)
}

func errorClass(err error) string {
	switch msg := err.Error(); {
	case strings.Contains(msg, "cycle"):
		return "cycle"
	case strings.Contains(msg, "no op selected"):
		return "no op"
	case strings.Contains(msg, "port") && strings.Contains(msg, "unconfigured"):
		return "port unconfigured"
	case strings.Contains(msg, "output") && strings.Contains(msg, "unconfigured"):
		return "output unconfigured"
	}
	return err.Error()
}

// randomConfig draws a configuration of s: mostly legal selections,
// sometimes a missing one, sometimes an arbitrary source unit (half of
// those an output unit).
func randomConfig(rng *rand.Rand, s *pe.Spec) pe.Config {
	c := pe.NewConfig()
	n := len(s.DP.Units)
	pick := func(legal []int) (int, bool) {
		switch r := rng.Intn(20); {
		case r == 0:
			return 0, false
		case r <= 2 || len(legal) == 0:
			if rng.Intn(2) == 0 { // an output: a cycle, or an unconfigured output
				return s.Outputs[rng.Intn(len(s.Outputs))], true
			}
			return rng.Intn(n), true
		default:
			return legal[rng.Intn(len(legal))], true
		}
	}
	for _, fu := range s.FUs {
		u := &s.DP.Units[fu]
		if rng.Intn(20) != 0 {
			c.OpSel[fu] = u.Ops[rng.Intn(len(u.Ops))]
		}
		if rng.Intn(2) == 0 {
			c.ConstVals[fu] = uint16(rng.Intn(256))
		}
		for p := 0; p < u.MaxPorts(); p++ {
			if src, ok := pick(s.PortSources(fu, p)); ok {
				c.PortSel[[2]int{fu, p}] = src
			}
		}
	}
	for _, cu := range s.Consts {
		c.ConstVals[cu] = uint16(rng.Intn(1 << 16))
	}
	for _, o := range s.Outputs {
		if src, ok := pick(s.PortSources(o, 0)); ok {
			c.OutSel[o] = src
		}
	}
	return c
}

// TestCrossCheckMatchesLegacy runs every rule of every suite variant
// through Rule.CrossCheck and through a frozen copy of the map-based
// trial loop it replaced (math/rand drawing the same seeded vectors,
// Graph.Eval and the map-based PE evaluator checking them): both pass.
// Seeded corruptions of each rule's configuration must then fail on the
// same trial with the same error, or pass on both.
func TestCrossCheckMatchesLegacy(t *testing.T) {
	_, variants := fastSuiteVariants(t)
	rng := rand.New(rand.NewSource(23))
	rules, failed, late := 0, 0, 0
	for _, v := range variants {
		for _, r := range v.Rules.Rules {
			rules++
			if trial, err := r.CrossCheck(); trial != -1 || err != nil {
				t.Fatalf("%s/%s: trial %d: %v", v.Name, r.Name, trial, err)
			}
			if trial, err := legacyCrossCheck(r); trial != -1 || err != nil {
				t.Fatalf("%s/%s: legacy trial %d: %v", v.Name, r.Name, trial, err)
			}
			for k := 0; k < 4; k++ {
				bad := corruptRule(rng, r)
				gt, gerr := bad.CrossCheck()
				wt, werr := legacyCrossCheck(bad)
				if gt != wt || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s/%s corruption %d: trial %d %v, legacy trial %d %v", v.Name, r.Name, k, gt, gerr, wt, werr)
				}
				if gerr != nil {
					failed++
					if gt > 0 {
						late++
					}
				}
			}
		}
	}
	if failed == 0 || late == 0 {
		t.Errorf("corruptions: %d failed, %d after the first trial; want some of each", failed, late)
	}
	t.Logf("%d rules; %d of %d corruptions failed, %d after the first trial", rules, failed, 4*rules, late)
}

// corruptRule returns a copy of r whose configuration differs in one
// place: another op on a used functional unit, another legal source on a
// configured port, or a flipped LUT table bit.
func corruptRule(rng *rand.Rand, r *rewrite.Rule) *rewrite.Rule {
	bad := *r
	bad.Config = r.Config.Clone()
	c := bad.Config
	switch rng.Intn(3) {
	case 0:
		fus := sortedKeys(c.OpSel)
		if len(fus) == 0 {
			break
		}
		fu := fus[rng.Intn(len(fus))]
		ops := r.Spec.DP.Units[fu].Ops
		c.OpSel[fu] = ops[rng.Intn(len(ops))]
	case 1:
		ports := make([][2]int, 0, len(c.PortSel))
		for k := range c.PortSel {
			ports = append(ports, k)
		}
		sort.Slice(ports, func(i, j int) bool {
			return ports[i][0] < ports[j][0] || ports[i][0] == ports[j][0] && ports[i][1] < ports[j][1]
		})
		if len(ports) == 0 {
			break
		}
		k := ports[rng.Intn(len(ports))]
		srcs := r.Spec.PortSources(k[0], k[1])
		c.PortSel[k] = srcs[rng.Intn(len(srcs))]
	case 2:
		for _, fu := range sortedKeys(c.OpSel) {
			if c.OpSel[fu] == ir.OpLUT {
				c.ConstVals[fu] ^= 1 << uint(rng.Intn(8))
			}
		}
	}
	return &bad
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// legacyCrossCheck is the rule cross-check as it was before it ran on
// compiled evaluators, frozen as the equivalence oracle: a fresh seeded
// math/rand stream, ports drawn in ascending pattern-node order (data
// inputs, bit inputs, constants), the pattern evaluated by name-bound
// Graph.Eval at a probe output, the PE by the map-based evaluator.
func legacyCrossCheck(r *rewrite.Rule) (int, error) {
	type portRef struct {
		v   ir.NodeRef
		pos int
	}
	sorted := func(m map[ir.NodeRef]int) []portRef {
		ps := make([]portRef, 0, len(m))
		for v, pos := range m {
			ps = append(ps, portRef{v, pos})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
		return ps
	}
	rng := rand.New(rand.NewSource(0xA9E5))
	pat := r.Pattern.Clone()
	pat.Output("__rule_probe", r.Root)
	cfg := r.Config.Clone()
	inputs := map[string]uint16{}
	inVals, bitVals := map[int]uint16{}, map[int]uint16{}
	for trial := 0; trial < 32; trial++ {
		for _, p := range sorted(r.InputPorts) {
			x := uint16(rng.Intn(1 << 16))
			inputs[pat.Nodes[p.v].Name] = x
			inVals[p.pos] = x
		}
		for _, p := range sorted(r.BitPorts) {
			x := uint16(rng.Intn(2))
			inputs[pat.Nodes[p.v].Name] = x
			bitVals[p.pos] = x
		}
		for _, p := range sorted(r.ConstRegs) {
			x := uint16(rng.Intn(1 << 16))
			if pat.Nodes[p.v].Op == ir.OpConstB {
				x &= 1
			}
			pat.Nodes[p.v].Val = x
			cfg.ConstVals[p.pos] = x
		}
		outs, err := legacyGraphEval(pat, inputs)
		if err != nil {
			return trial, err
		}
		want := outs["__rule_probe"]
		got, err := legacyEvaluate(r.Spec, cfg, inVals, bitVals)
		if err != nil {
			return trial, err
		}
		if got[r.OutUnit] != want {
			return trial, fmt.Errorf("rewrite: simulation mismatch: PE %d vs pattern %d", got[r.OutUnit], want)
		}
	}
	return -1, nil
}

// legacyGraphEval is ir.Graph.Eval before its per-node kernel moved to
// ir.EvalNode.
func legacyGraphEval(g *ir.Graph, inputs map[string]uint16) (map[string]uint16, error) {
	if err := g.Err(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := make([]uint16, len(g.Nodes))
	outs := make(map[string]uint16)
	for _, v := range order {
		n := &g.Nodes[v]
		switch n.Op {
		case ir.OpInput, ir.OpInputB:
			vals[v] = inputs[n.Name]
			if n.Op == ir.OpInputB {
				vals[v] &= 1
			}
		case ir.OpOutput:
			vals[v] = vals[n.Args[0]]
			outs[n.Name] = vals[v]
		default:
			args := make([]uint16, 0, len(n.Args))
			for _, a := range n.Args {
				args = append(args, vals[a])
			}
			vals[v] = ir.EvalOp(n.Op, args, n.Val)
		}
	}
	return outs, nil
}

// legacyEvaluate is pe.Spec.Evaluate before it compiled to a Program:
// a memoized recursive walk over per-call maps.
func legacyEvaluate(s *pe.Spec, c pe.Config, inputVals map[int]uint16, bitVals map[int]uint16) (map[int]uint16, error) {
	memo := map[int]uint16{}
	state := map[int]uint8{}
	indexOf := func(xs []int, x int) int {
		for i, v := range xs {
			if v == x {
				return i
			}
		}
		return -1
	}
	var eval func(u int) (uint16, error)
	eval = func(u int) (uint16, error) {
		if state[u] == 2 {
			return memo[u], nil
		}
		if state[u] == 1 {
			return 0, fmt.Errorf("pe: configured datapath has a combinational cycle at unit %d", u)
		}
		state[u] = 1
		unit := &s.DP.Units[u]
		var v uint16
		switch unit.Kind {
		case merge.UnitInput:
			v = inputVals[indexOf(s.Inputs, u)]
		case merge.UnitInputB:
			v = bitVals[indexOf(s.InputsB, u)] & 1
		case merge.UnitConst:
			v = c.ConstVals[u]
			if unit.Bit {
				v &= 1
			}
		case merge.UnitOp:
			op, ok := c.OpSel[u]
			if !ok {
				if len(unit.Ops) == 1 {
					op = unit.Ops[0]
				} else {
					return 0, fmt.Errorf("pe: unit %d (%s) has no op selected", u, unit)
				}
			}
			var args []uint16
			for p := 0; p < op.Arity(); p++ {
				src, ok := c.PortSel[[2]int{u, p}]
				if !ok {
					return 0, fmt.Errorf("pe: unit %d port %d unconfigured", u, p)
				}
				av, err := eval(src)
				if err != nil {
					return 0, err
				}
				args = append(args, av)
			}
			v = ir.EvalOp(op, args, c.ConstVals[u])
		case merge.UnitOutput:
			src, ok := c.OutSel[u]
			if !ok {
				return 0, fmt.Errorf("pe: output %d unconfigured", u)
			}
			sv, err := eval(src)
			if err != nil {
				return 0, err
			}
			v = sv
		}
		memo[u] = v
		state[u] = 2
		return v, nil
	}
	outs := map[int]uint16{}
	for _, o := range s.Outputs {
		if _, ok := c.OutSel[o]; !ok {
			continue
		}
		v, err := eval(o)
		if err != nil {
			return nil, err
		}
		outs[o] = v
	}
	return outs, nil
}

// TestProducersMatchLegacy compares MNode.Producers with the sorted-keys
// version it replaced on every node of every mapped and balanced design
// of a suite pass.
func TestProducersMatchLegacy(t *testing.T) {
	h, _ := fastSuiteVariants(t)
	designs, nodes := 0, 0
	h.results.Each(func(_ string, r *core.Result, err error) {
		if err != nil {
			return
		}
		for _, m := range []*rewrite.Mapped{r.Mapped, r.Balanced} {
			if m == nil {
				continue
			}
			designs++
			for i := range m.Nodes {
				nodes++
				if got, want := m.Nodes[i].Producers(), legacyProducers(&m.Nodes[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s node %d: producers %v, legacy %v", m.Name, i, got, want)
				}
			}
		}
	})
	if designs == 0 {
		t.Fatal("suite produced no mapped designs")
	}
	t.Logf("%d designs, %d nodes", designs, nodes)
}

// legacyProducers is MNode.Producers before it walked positions: the
// sorted keys of each port map.
func legacyProducers(n *rewrite.MNode) []int {
	switch n.Kind {
	case rewrite.KindPE:
		ps := make([]int, 0, len(n.DataIn)+len(n.BitIn))
		for _, pos := range sortedKeys(n.DataIn) {
			ps = append(ps, n.DataIn[pos])
		}
		for _, pos := range sortedKeys(n.BitIn) {
			ps = append(ps, n.BitIn[pos])
		}
		return ps
	case rewrite.KindInput, rewrite.KindInputB:
		return nil
	default:
		if n.Arg < 0 {
			return nil
		}
		return []int{n.Arg}
	}
}
