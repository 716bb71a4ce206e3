package cgra

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
)

func TestFabricGeometry(t *testing.T) {
	f := Default()
	if f.W != 32 || f.H != 16 {
		t.Fatalf("default fabric %dx%d, want 32x16", f.W, f.H)
	}
	_, slots := freeSites(f)
	pes, mems := slots[classPE], slots[classMem]
	if pes+mems != f.NumTiles() || slots[classRF] != pes {
		t.Errorf("tiles %d + %d != %d, or %d register-file slots", pes, mems, f.NumTiles(), slots[classRF])
	}
	// Every 4th column is memory: 8 columns x 16 rows.
	if mems != 8*16 {
		t.Errorf("mem tiles = %d, want 128", mems)
	}
	if slots[classIO] != 2*(32+16) {
		t.Errorf("IO sites = %d, want 96", slots[classIO])
	}
	if f.KindAt(Coord{3, 0}) != TileMem || f.KindAt(Coord{0, 0}) != TilePE {
		t.Error("mem column stride wrong")
	}
	if f.KindAt(Coord{-1, 5}) != TileIO {
		t.Error("ring should be IO")
	}
}

func TestFabricNeighborsAndValidity(t *testing.T) {
	f := Default()
	if len(f.Neighbors(Coord{5, 5})) != 4 {
		t.Error("interior tile should have 4 neighbors")
	}
	if f.ValidCoord(Coord{-1, -1}) {
		t.Error("corner should be invalid")
	}
	if !f.ValidCoord(Coord{-1, 0}) {
		t.Error("west ring should be valid")
	}
}

// smallMapped maps the Fig. 3 convolution onto the baseline PE.
func smallMapped(t *testing.T) (*ir.Graph, *rewrite.Mapped) {
	t.Helper()
	g := ir.NewGraph("conv")
	var acc ir.NodeRef = -1
	for k := 0; k < 4; k++ {
		in := g.Input(string(rune('a' + k)))
		w := g.Const(uint16(2*k + 1))
		m := g.OpNode(ir.OpMul, in, w)
		if acc < 0 {
			acc = m
		} else {
			acc = g.OpNode(ir.OpAdd, acc, m)
		}
	}
	g.Output("out", g.OpNode(ir.OpAdd, acc, g.Const(5)))
	spec := pe.FromDatapath("base", merge.BaselinePE(ir.BaselineALUOps()))
	rs, err := rewrite.SynthesizeRuleSet(spec, nil, ir.BaselineALUOps())
	if err != nil {
		t.Fatal(err)
	}
	m, err := rewrite.MapApp(g, rs, "conv")
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func TestPlaceSmall(t *testing.T) {
	_, m := smallMapped(t)
	p, err := Place(context.Background(), m, Default(), PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Wirelength() <= 0 {
		t.Error("zero wirelength for a connected design")
	}
}

func TestPlaceRejectsOversizedDesign(t *testing.T) {
	_, m := smallMapped(t)
	tiny := NewFabric(2, 2)
	if _, err := Place(context.Background(), m, tiny, PlaceOptions{}); err == nil {
		t.Fatal("expected capacity error on 2x2 fabric")
	}
}

func TestPlaceAllAppsFit(t *testing.T) {
	// Every benchmark must fit the paper's 32x16 fabric with the
	// baseline PE (Table 3 footprints).
	spec := pe.FromDatapath("base", merge.BaselinePE(ir.BaselineALUOps()))
	rs, err := rewrite.SynthesizeRuleSet(spec, nil, ir.BaselineALUOps())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps.All() {
		m, err := rewrite.MapApp(a.Graph, rs, a.Name)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		bal, _ := pipeline.BalanceApp(m, pipeline.AppOptions{PELatency: 1})
		p, err := Place(context.Background(), bal, Default(), PlaceOptions{Seed: 7, Moves: 20000})
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestRouteSmall(t *testing.T) {
	_, m := smallMapped(t)
	p, err := Place(context.Background(), m, Default(), PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RouteAll(context.Background(), p, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every net routed, endpoints correct.
	nets := collectNets(m)
	if len(r.Routes) != len(nets) {
		t.Fatalf("routes = %d, nets = %d", len(r.Routes), len(nets))
	}
	for _, rt := range r.Routes {
		if rt.Path[0] != p.Loc[rt.Net.Src] || rt.Path[len(rt.Path)-1] != p.Loc[rt.Net.Dst] {
			t.Fatalf("route endpoints wrong: %v", rt)
		}
		for i := 0; i+1 < len(rt.Path); i++ {
			if manhattan(rt.Path[i], rt.Path[i+1]) != 1 {
				t.Fatalf("non-adjacent hop in route: %v", rt.Path)
			}
		}
	}
	// Capacity respected.
	for e, u := range r.Use16 {
		if u > p.Fabric.Tracks16 {
			t.Errorf("edge %v overused: %d > %d", e, u, p.Fabric.Tracks16)
		}
	}
}

func TestRouteCongestionResolves(t *testing.T) {
	// Funnel many nets through a narrow fabric to force negotiation.
	g := ir.NewGraph("fan")
	var sums []ir.NodeRef
	in := g.Input("x")
	for k := 0; k < 10; k++ {
		sums = append(sums, g.OpNode(ir.OpAdd, in, g.Const(uint16(k))))
	}
	acc := sums[0]
	for _, s := range sums[1:] {
		acc = g.OpNode(ir.OpAdd, acc, s)
	}
	g.Output("o", acc)
	spec := pe.FromDatapath("base", merge.BaselinePE(ir.BaselineALUOps()))
	rs, _ := rewrite.SynthesizeRuleSet(spec, nil, ir.BaselineALUOps())
	m, err := rewrite.MapApp(g, rs, "fan")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(8, 4)
	p, err := Place(context.Background(), m, f, PlaceOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RouteAll(context.Background(), p, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations < 1 {
		t.Error("router reported zero iterations")
	}
}

func TestRoutingStats(t *testing.T) {
	_, m := smallMapped(t)
	p, _ := Place(context.Background(), m, Default(), PlaceOptions{Seed: 1})
	r, err := RouteAll(context.Background(), p, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalHops() <= 0 {
		t.Error("no hops")
	}
	if r.MaxRouteHops() <= 0 || r.MaxRouteHops() > r.TotalHops() {
		t.Error("max hops inconsistent")
	}
	if r.UsedSBTiles() <= 0 {
		t.Error("no SB tiles used")
	}
	if r.RoutingOnlyTiles() < 0 {
		t.Error("negative routing-only tiles")
	}
}

func TestBitstreamDeterministicAndDecodable(t *testing.T) {
	_, m := smallMapped(t)
	p, _ := Place(context.Background(), m, Default(), PlaceOptions{Seed: 1})
	r, err := RouteAll(context.Background(), p, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := GenerateBitstream(r)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := GenerateBitstream(r)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Size() == 0 {
		t.Fatal("empty bitstream")
	}
	if b1.Size() != b2.Size() {
		t.Fatal("bitstream size nondeterministic")
	}
	for i := range b1.Words {
		if b1.Words[i] != b2.Words[i] {
			t.Fatal("bitstream contents nondeterministic")
		}
	}
	// Every switch-box word's track (data: route<<8 | dir<<4 | track)
	// lies within its plane's capacity.
	sb := 0
	for _, w := range b1.Words {
		if int(w.Addr>>8&0xf) != featSB {
			continue
		}
		sb++
		rt := r.Routes[w.Data>>8]
		capacity := p.Fabric.Tracks16
		if rt.Net.Bit {
			capacity = p.Fabric.Tracks1
		}
		if track := int(w.Data & 0xf); track >= capacity {
			t.Fatalf("route %d: track %d out of range", w.Data>>8, track)
		}
	}
	if sb == 0 {
		t.Fatal("no switch-box words")
	}
}

func TestSimulateCombinationalMatchesEval(t *testing.T) {
	app, m := smallMapped(t)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		inputs := map[string][]uint16{}
		evalIn := map[string]uint16{}
		for _, in := range app.Inputs() {
			v := uint16(rng.Intn(1 << 16))
			inputs[app.Nodes[in].Name] = []uint16{v}
			evalIn[app.Nodes[in].Name] = v
		}
		want, _ := app.Eval(evalIn)
		got, err := Simulate(context.Background(), m, 0, inputs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got["out"][0] != want["out"] {
			t.Fatalf("combinational sim %d != eval %d", got["out"][0], want["out"])
		}
	}
}

func TestSimulatePipelinedSteadyState(t *testing.T) {
	app, m := smallMapped(t)
	const peLat = 2
	bal, _ := pipeline.BalanceApp(m, pipeline.AppOptions{PELatency: peLat})
	lat := OutputLatencies(bal, peLat)["out"]
	if lat <= 0 {
		t.Fatal("zero latency for pipelined design")
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		inputs := map[string][]uint16{}
		evalIn := map[string]uint16{}
		for _, in := range app.Inputs() {
			v := uint16(rng.Intn(1 << 16))
			inputs[app.Nodes[in].Name] = []uint16{v}
			evalIn[app.Nodes[in].Name] = v
		}
		want, _ := app.Eval(evalIn)
		trace, err := Simulate(context.Background(), bal, peLat, inputs, lat+2)
		if err != nil {
			t.Fatal(err)
		}
		if got := trace["out"][lat]; got != want["out"] {
			t.Fatalf("steady state %d != eval %d (latency %d)", got, want["out"], lat)
		}
	}
}

// TestSimulateTimeVaryingStream checks full cycle accuracy: with a
// balanced design, the output at cycle t+L equals the combinational
// evaluation of the inputs presented at cycle t.
func TestSimulateTimeVaryingStream(t *testing.T) {
	app, m := smallMapped(t)
	const peLat = 1
	bal, _ := pipeline.BalanceApp(m, pipeline.AppOptions{PELatency: peLat, FIFOCutoff: 2})
	lat := OutputLatencies(bal, peLat)["out"]
	rng := rand.New(rand.NewSource(10))
	const cycles = 40
	inputs := map[string][]uint16{}
	names := []string{}
	for _, in := range app.Inputs() {
		names = append(names, app.Nodes[in].Name)
		stream := make([]uint16, cycles)
		for i := range stream {
			stream[i] = uint16(rng.Intn(1 << 16))
		}
		inputs[app.Nodes[in].Name] = stream
	}
	trace, err := Simulate(context.Background(), bal, peLat, inputs, cycles)
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0; tm+lat < cycles; tm++ {
		evalIn := map[string]uint16{}
		for _, nm := range names {
			evalIn[nm] = inputs[nm][tm]
		}
		want, _ := app.Eval(evalIn)
		if got := trace["out"][tm+lat]; got != want["out"] {
			t.Fatalf("cycle %d: sim %d != eval %d", tm, got, want["out"])
		}
	}
}

func TestOutputLatenciesBalanced(t *testing.T) {
	_, m := smallMapped(t)
	bal, report := pipeline.BalanceApp(m, pipeline.AppOptions{PELatency: 3})
	lats := OutputLatencies(bal, 3)
	if lats["out"] != report.TotalLatency {
		t.Errorf("output latency %d != report latency %d", lats["out"], report.TotalLatency)
	}
}
