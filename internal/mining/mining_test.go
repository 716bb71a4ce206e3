package mining

import (
	"context"

	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/ir"
)

// convGraph builds the paper's Fig. 3a convolution:
// ((((i0*w0) + (i1*w1)) + (i2*w2)) + (i3*w3)) + c.
func convGraph() *ir.Graph {
	g := ir.NewGraph("conv")
	var acc ir.NodeRef = -1
	for k := 0; k < 4; k++ {
		in := g.Input("i")
		w := g.Const(uint16(k + 1))
		m := g.OpNode(ir.OpMul, in, w)
		if acc < 0 {
			acc = m
		} else {
			acc = g.OpNode(ir.OpAdd, acc, m)
		}
	}
	// The structure in the paper has 4 muls and 4 adds: the first two
	// muls feed the first add.
	c := g.Const(42)
	acc = g.OpNode(ir.OpAdd, acc, c)
	g.Output("out", acc)
	return g
}

func mineConv(t *testing.T, minSupport int) []Pattern {
	t.Helper()
	view, _ := ComputeView(convGraph())
	pats, err := Mine(context.Background(), view, Options{MinSupport: minSupport, MaxNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

func findPattern(pats []Pattern, want *graph.Graph) *Pattern {
	code := graph.CanonicalCode(want)
	for i := range pats {
		if pats[i].Code == code {
			return &pats[i]
		}
	}
	return nil
}

func TestMineConvFindsMulAdd(t *testing.T) {
	// Fig. 3b: mul->add has 4 occurrences (the paper counts occurrences);
	// the MNI support is 3 because the four occurrences only touch three
	// distinct add nodes (m0 and m1 both feed the first add).
	pats := mineConv(t, 3)
	p := graph.New()
	m := p.AddNode("mul")
	a := p.AddNode("add")
	p.AddEdge(m, a, 0)
	got := findPattern(pats, p)
	if got == nil {
		t.Fatal("mul->add (Fig. 3b) not mined")
	}
	if got.Support != 3 {
		t.Errorf("mul->add MNI support = %d, want 3", got.Support)
	}
	if got.Embeddings.Len() != 4 {
		t.Errorf("mul->add occurrences = %d, paper says 4", got.Embeddings.Len())
	}
}

func TestMineConvFindsConstMulAdd(t *testing.T) {
	// Fig. 3c: const->mul->add, 4 occurrences, MNI 3 (same add sharing).
	pats := mineConv(t, 3)
	p := graph.New()
	c := p.AddNode("const")
	m := p.AddNode("mul")
	a := p.AddNode("add")
	p.AddEdge(c, m, 0)
	p.AddEdge(m, a, 0)
	got := findPattern(pats, p)
	if got == nil {
		t.Fatal("const->mul->add (Fig. 3c) not mined")
	}
	if got.Embeddings.Len() != 4 {
		t.Errorf("const->mul->add occurrences = %d, paper says 4", got.Embeddings.Len())
	}
}

func TestMineConvFindsMulAddAdd(t *testing.T) {
	// Fig. 3d: mul -> add -> add, 4 occurrences but only MNI 3 because
	// the middle position has 3 distinct images.
	pats := mineConv(t, 3)
	p := graph.New()
	m := p.AddNode("mul")
	a1 := p.AddNode("add")
	a2 := p.AddNode("add")
	p.AddEdge(m, a1, 0)
	p.AddEdge(a1, a2, 0)
	got := findPattern(pats, p)
	if got == nil {
		t.Fatal("mul->add->add (Fig. 3d) not mined")
	}
	if got.Embeddings.Len() != 4 {
		t.Errorf("Fig. 3d occurrences = %d, paper says 4", got.Embeddings.Len())
	}
	if got.Support != 3 {
		t.Errorf("Fig. 3d MNI support = %d, want 3", got.Support)
	}
}

func TestMinSupportPrunes(t *testing.T) {
	pats := mineConv(t, 5)
	for _, p := range pats {
		if p.Support < 5 {
			t.Errorf("pattern %s has support %d < threshold 5", p.Code, p.Support)
		}
	}
}

func TestPatternsConnectedAndDeduped(t *testing.T) {
	pats := mineConv(t, 2)
	seen := map[string]bool{}
	for _, p := range pats {
		if !p.Graph.IsWeaklyConnected() {
			t.Errorf("pattern %s not connected", p.Code)
		}
		if seen[p.Code] {
			t.Errorf("duplicate pattern %s", p.Code)
		}
		seen[p.Code] = true
		if p.ComputeSize() < 2 {
			t.Errorf("pattern %s has %d compute nodes, MinComputeNodes=2", p.Code, p.ComputeSize())
		}
	}
}

func TestMaxNodesRespected(t *testing.T) {
	view, _ := ComputeView(convGraph())
	pats, err := Mine(context.Background(), view, Options{MinSupport: 2, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		if p.Size() > 3 {
			t.Errorf("pattern %s exceeds MaxNodes=3 (%d nodes)", p.Code, p.Size())
		}
	}
}

func TestSupportAntimonotone(t *testing.T) {
	// Every mined pattern's support must not exceed the support of the
	// single-edge patterns it contains — spot check: any pattern
	// containing mul->add cannot beat mul->add's support.
	pats := mineConv(t, 2)
	edge := graph.New()
	m := edge.AddNode("mul")
	a := edge.AddNode("add")
	edge.AddEdge(m, a, 0)
	base := findPattern(pats, edge)
	if base == nil {
		t.Skip("mul->add not found")
	}
	for _, p := range pats {
		if p.Size() > 2 && graph.HasEmbedding(edge, p.Graph) {
			if p.Support > base.Support {
				t.Errorf("pattern %s support %d exceeds sub-pattern support %d",
					p.Code, p.Support, base.Support)
			}
		}
	}
}

func TestComputeViewExcludesStructural(t *testing.T) {
	g := convGraph()
	view, back := ComputeView(g)
	for v := 0; v < view.NumNodes(); v++ {
		label := view.Label(graph.NodeID(v))
		if label == "input" || label == "output" || label == "mem" || label == "reg" {
			t.Errorf("compute view contains structural node %s", label)
		}
	}
	// conv: 4 mul + 4 add + 5 const = 13 view nodes.
	if view.NumNodes() != 13 {
		t.Errorf("view nodes = %d, want 13", view.NumNodes())
	}
	if len(back) != view.NumNodes() {
		t.Errorf("back map size %d != view size %d", len(back), view.NumNodes())
	}
}

func TestMineCameraPipeline(t *testing.T) {
	// The real camera graph must mine successfully and produce a healthy
	// pattern set that includes a multiply-accumulate shape (from the
	// color-correction matrix).
	view, _ := ComputeView(apps.Camera().Graph)
	pats, err := Mine(context.Background(), view, Options{MinSupport: 8, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) == 0 {
		t.Fatal("no frequent patterns in camera pipeline")
	}
	mulAdd := graph.New()
	m := mulAdd.AddNode("mul")
	a := mulAdd.AddNode("add")
	mulAdd.AddEdge(m, a, 0)
	if findPattern(pats, mulAdd) == nil {
		t.Error("camera mining missed mul->add")
	}
	// Ordering: support non-increasing.
	for i := 1; i < len(pats); i++ {
		if pats[i].Support > pats[i-1].Support {
			t.Fatal("patterns not sorted by support")
		}
	}
}

func BenchmarkMineConv(b *testing.B) {
	view, _ := ComputeView(convGraph())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(context.Background(), view, Options{MinSupport: 2, MaxNodes: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkMineCamera(b *testing.B, workers int) {
	view, _ := ComputeView(apps.Camera().Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(context.Background(), view, Options{MinSupport: 8, MaxNodes: 4, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineCamera(b *testing.B)         { benchmarkMineCamera(b, 0) }
func BenchmarkMineCameraWorkers8(b *testing.B) { benchmarkMineCamera(b, 8) }

// BenchmarkMineCameraReference is the frozen pre-SoA miner on the same
// workload: the denominator of TestGateMineSpeedup (gate_test.go).
func BenchmarkMineCameraReference(b *testing.B) {
	view, _ := ComputeView(apps.Camera().Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineReference(context.Background(), view, Options{MinSupport: 8, MaxNodes: 4})
	}
}

// BenchmarkMineSuite mines every application in the paper's nine-app
// suite with the per-app Analyze options.
func BenchmarkMineSuite(b *testing.B) {
	type workload struct {
		view *graph.Graph
		opt  Options
	}
	var loads []workload
	for _, app := range apps.All() {
		view, _ := ComputeView(app.Graph)
		minSupport := app.ComputeOps() / 40
		if minSupport < 4 {
			minSupport = 4
		}
		loads = append(loads, workload{view, Options{MinSupport: minSupport, MaxNodes: 4}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range loads {
			if _, err := Mine(context.Background(), w.view, w.opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
