package mis

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/mining"
)

// convView reproduces the paper's Fig. 3a convolution compute view.
func convView() *graph.Graph {
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
	acc = g.OpNode(ir.OpAdd, acc, g.Const(42))
	g.Output("out", acc)
	view, _ := mining.ComputeView(g)
	return view
}

func minedPattern(t *testing.T, view *graph.Graph, build func(*graph.Graph)) mining.Pattern {
	t.Helper()
	p := graph.New()
	build(p)
	embs := graph.FindEmbeddings(p, view, graph.EmbedOptions{})
	if len(embs) == 0 {
		t.Fatal("test pattern has no embeddings")
	}
	return mining.Pattern{
		Graph:      p,
		Code:       graph.CanonicalCode(p),
		Embeddings: graph.EmbeddingListFromRows(p.NumNodes(), embs),
		Support:    len(embs),
	}
}

// TestFig4MulAddAdd reproduces the paper's Fig. 4 exactly: subgraph C
// (mul->add->add) has four occurrences in the convolution, the overlap
// graph has edges between occurrences sharing nodes, and the MIS size is
// two.
func TestFig4MulAddAdd(t *testing.T) {
	view := convView()
	pat := minedPattern(t, view, func(p *graph.Graph) {
		m := p.AddNode("mul")
		a1 := p.AddNode("add")
		a2 := p.AddNode("add")
		p.AddEdge(m, a1, 0)
		p.AddEdge(a1, a2, 0)
	})
	r := Analyze(pat)
	if len(r.Occurrences) != 4 {
		t.Fatalf("occurrences = %d, paper says 4", len(r.Occurrences))
	}
	if r.MISSize != 2 {
		t.Fatalf("MIS size = %d, paper says 2", r.MISSize)
	}
	if !r.Exact {
		t.Error("4-node overlap graph should be solved exactly")
	}
	// The selected occurrences must be disjoint.
	seen := map[graph.NodeID]bool{}
	for _, idx := range r.Independent {
		for _, v := range r.Occurrences[idx] {
			if seen[v] {
				t.Fatal("independent occurrences share a node")
			}
			seen[v] = true
		}
	}
}

func TestNonOverlappingPatternFullMIS(t *testing.T) {
	view := convView()
	pat := minedPattern(t, view, func(p *graph.Graph) {
		c := p.AddNode("const")
		m := p.AddNode("mul")
		p.AddEdge(c, m, 0)
	})
	r := Analyze(pat)
	// const->mul occurrences (the four weights) are disjoint.
	if r.MISSize != len(r.Occurrences) {
		t.Errorf("disjoint occurrences: MIS %d != occurrences %d", r.MISSize, len(r.Occurrences))
	}
}

func TestRankOrdersByMIS(t *testing.T) {
	view := convView()
	mulAddAdd := minedPattern(t, view, func(p *graph.Graph) {
		m := p.AddNode("mul")
		a1 := p.AddNode("add")
		a2 := p.AddNode("add")
		p.AddEdge(m, a1, 0)
		p.AddEdge(a1, a2, 0)
	})
	mulAdd := minedPattern(t, view, func(p *graph.Graph) {
		m := p.AddNode("mul")
		a := p.AddNode("add")
		p.AddEdge(m, a, 0)
	})
	ranked := Rank(context.Background(), []mining.Pattern{mulAddAdd, mulAdd})
	// mul->add has MIS 4 (disjoint), mul->add->add has MIS 2.
	if ranked[0].MISSize < ranked[1].MISSize {
		t.Fatalf("ranking not descending: %d then %d", ranked[0].MISSize, ranked[1].MISSize)
	}
	if ranked[0].Pattern.Code != mulAdd.Code {
		t.Errorf("mul->add (MIS 4) should rank first")
	}
}

func TestRankByFrequencyDiffersFromMIS(t *testing.T) {
	// The ablation ranking uses occurrence counts; with equal occurrence
	// counts (4 vs 4) but different MIS (4 vs 2), the orderings can
	// disagree. Just verify both run and produce consistent lengths.
	view := convView()
	a := minedPattern(t, view, func(p *graph.Graph) {
		m := p.AddNode("mul")
		x := p.AddNode("add")
		p.AddEdge(m, x, 0)
	})
	b := minedPattern(t, view, func(p *graph.Graph) {
		m := p.AddNode("mul")
		a1 := p.AddNode("add")
		a2 := p.AddNode("add")
		p.AddEdge(m, a1, 0)
		p.AddEdge(a1, a2, 0)
	})
	byMIS := Rank(context.Background(), []mining.Pattern{a, b})
	byFreq := RankByFrequency(context.Background(), []mining.Pattern{a, b})
	if len(byMIS) != 2 || len(byFreq) != 2 {
		t.Fatal("rankings lost patterns")
	}
}

func TestMISSizeNeverExceedsOccurrences(t *testing.T) {
	view := convView()
	pats, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: 2, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		r := Analyze(p)
		if r.MISSize > len(r.Occurrences) {
			t.Errorf("pattern %s: MIS %d > occurrences %d", p.Code, r.MISSize, len(r.Occurrences))
		}
		if r.MISSize < 1 {
			t.Errorf("pattern %s: MIS %d < 1", p.Code, r.MISSize)
		}
	}
}

func TestIndependentSetIsActuallyIndependent(t *testing.T) {
	view := convView()
	pats, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: 2, MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		r := Analyze(p)
		used := map[graph.NodeID]int{}
		for _, idx := range r.Independent {
			for _, v := range r.Occurrences[idx] {
				used[v]++
				if used[v] > 1 {
					t.Fatalf("pattern %s: node %d used by two independent occurrences", p.Code, v)
				}
			}
		}
	}
}

// TestSortByFrequencyOfMISRanking: re-sorting an MIS ranking by
// frequency gives exactly what RankByFrequency gives on the same mined
// patterns, so the frequency ablation can reuse a cached analysis.
func TestSortByFrequencyOfMISRanking(t *testing.T) {
	pats, err := mining.Mine(context.Background(), convView(), mining.Options{MinSupport: 2, MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) < 3 {
		t.Fatalf("mined %d patterns, want several to order", len(pats))
	}
	want := RankByFrequency(context.Background(), pats)
	got := Rank(context.Background(), pats)
	SortByFrequency(got)
	if !reflect.DeepEqual(got, want) {
		t.Error("frequency-sorted MIS ranking differs from RankByFrequency")
	}
}
