// Package repro's root benchmark harness regenerates every table and
// figure of the APEX paper's evaluation (one benchmark per table/figure,
// full place-and-route) and runs the ablation studies DESIGN.md calls
// out that the Ablations table of `apex-eval` does not (ranking and FIFO
// cutoff are there). Custom metrics surface the headline numbers next
// to the timings:
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/tech"
)

// sharedHarness caches analyses and variants across benchmark iterations
// so b.N > 1 measures the memoized steady state, and the first iteration
// the cold full run.
var sharedHarness = eval.NewHarness()

func BenchmarkTable1Apps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := eval.Table1(); len(tab.Rows) != 9 {
			b.Fatal("table 1 wrong size")
		}
	}
}

func BenchmarkFig3Mining(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, pats, err := eval.Fig3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(pats) == 0 {
			b.Fatal("no patterns")
		}
	}
}

func BenchmarkFig4MIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, r := eval.Fig4(context.Background())
		if r.MISSize != 2 {
			b.Fatalf("MIS = %d, want 2", r.MISSize)
		}
	}
}

func BenchmarkFig5Merge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, merged := eval.Fig5()
		if merged.Count().FUs != 3 {
			b.Fatal("merge shape wrong")
		}
	}
}

func BenchmarkFig11CameraLadder(b *testing.B) {
	var rungs []eval.LadderResult
	for i := 0; i < b.N; i++ {
		var err error
		_, rungs, err = sharedHarness.CameraLadder(context.Background(), true)
		if err != nil {
			b.Fatal(err)
		}
	}
	base, last := rungs[0], rungs[len(rungs)-1]
	b.ReportMetric((1-last.TotalArea/base.TotalArea)*100, "%area-reduction")
	b.ReportMetric((1-last.PEEnergy/base.PEEnergy)*100, "%energy-reduction")
}

func BenchmarkTable2CameraPerf(b *testing.B) {
	var rungs []eval.LadderResult
	for i := 0; i < b.N; i++ {
		var err error
		_, rungs, err = sharedHarness.CameraLadder(context.Background(), true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rungs[len(rungs)-1].PerfPerMM2/rungs[0].PerfPerMM2, "x-perf/mm2-gain")
}

func BenchmarkFig12IPVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sharedHarness.Fig12(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Unseen(b *testing.B) {
	var results map[string][2]*core.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = sharedHarness.Fig13(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Average energy reduction across the unseen apps.
	sum := 0.0
	for _, pair := range results {
		sum += (1 - pair[1].PEEnergy/pair[0].PEEnergy) * 100
	}
	b.ReportMetric(sum/float64(len(results)), "%unseen-energy-reduction")
}

func BenchmarkFig14PostMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sharedHarness.Fig14(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15PostPnR(b *testing.B) {
	var results map[string]map[string]*core.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = sharedHarness.Fig15(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	r := results["camera"]
	b.ReportMetric((1-r["spec_camera"].TotalEnergy/r["baseline"].TotalEnergy)*100, "%camera-cgra-energy-reduction")
}

func BenchmarkFig16Pipelining(b *testing.B) {
	var results map[string]map[string][2]*core.Result
	for i := 0; i < b.N; i++ {
		var err error
		_, results, err = sharedHarness.Fig16(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	pair := results["camera"]["baseline"]
	b.ReportMetric(pair[1].PerfPerMM2/pair[0].PerfPerMM2, "x-pipelining-gain")
}

func BenchmarkTable3Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sharedHarness.Table3(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Accelerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sharedHarness.Fig17(context.Background(), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18ML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sharedHarness.Fig18(context.Background(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel harness scaling
// ---------------------------------------------------------------------------

// runFullEval runs the whole fast suite on a cold harness with the given
// worker count — the unit the parallel-speedup comparison is made of.
func runFullEval(b *testing.B, workers int) {
	b.Helper()
	h := eval.NewHarness()
	h.FastMode = true
	h.Workers = workers
	tables, err := h.Suite(context.Background(), false)
	if err != nil {
		b.Fatal(err)
	}
	if len(tables) == 0 {
		b.Fatal("empty suite")
	}
}

// BenchmarkFullEvalSerial is the baseline: every cell evaluated in order
// on one worker, cold caches each iteration.
func BenchmarkFullEvalSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runFullEval(b, 1)
	}
}

// BenchmarkFullEvalParallel fans the independent cells out over
// GOMAXPROCS workers (scale it with -cpu=1,2,4,8). On a 4+ core machine
// this runs >=2x faster than BenchmarkFullEvalSerial; the output tables
// are byte-identical either way (see TestSuiteDeterministicAcrossWorkers).
func BenchmarkFullEvalParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runFullEval(b, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkMemoContention hammers one warm harness from parallel
// goroutines with overlapping keys — the singleflight fast path.
func BenchmarkMemoContention(b *testing.B) {
	h := eval.NewHarness()
	h.FastMode = true
	app := apps.Camera()
	base, err := h.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Evaluate(context.Background(), app, base, false, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := h.Evaluate(context.Background(), app, base, false, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation studies (DESIGN.md Section 4)
// ---------------------------------------------------------------------------

// BenchmarkAblationMergeVsUnion compares max-weight-clique merging with
// naive disjoint union (DESIGN.md ablation 2) on the Fig. 5 subgraphs.
func BenchmarkAblationMergeVsUnion(b *testing.B) {
	m := tech.Default()
	mk := func(shift bool) *merge.Datapath {
		g := ir.NewGraph("s")
		x := g.Input("x")
		y := g.Input("y")
		var v ir.NodeRef
		if shift {
			v = g.OpNode(ir.OpAdd, g.OpNode(ir.OpShl, x, g.Input("s")), y)
		} else {
			v = g.OpNode(ir.OpAdd, x, y)
		}
		g.Output("o", g.OpNode(ir.OpAdd, v, g.Const(3)))
		dp, err := merge.FromPattern(g, "s")
		if err != nil {
			b.Fatal(err)
		}
		return dp
	}
	var merged, union float64
	for i := 0; i < b.N; i++ {
		a, c := mk(false), mk(true)
		merged = merge.Merge(a, c, merge.Options{}).Area(m)
		union = merge.DisjointUnion(a, c).Area(m)
	}
	b.ReportMetric((1-merged/union)*100, "%area-saved-vs-union")
}

// BenchmarkAblationExactVsGreedyMIS compares the exact and greedy
// independent-set solvers (DESIGN.md ablation 4) on mined camera
// patterns.
func BenchmarkAblationExactVsGreedyMIS(b *testing.B) {
	view, _ := mining.ComputeView(apps.Camera().Graph)
	pats, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: 8, MaxNodes: 3})
	if err != nil {
		b.Fatal(err)
	}
	if len(pats) == 0 {
		b.Fatal("no patterns")
	}
	var exactSum, greedySum int
	for i := 0; i < b.N; i++ {
		exactSum, greedySum = 0, 0
		for _, p := range pats {
			r := mis.Analyze(p)
			exactSum += r.MISSize
			// Greedy-only for comparison.
			greedySum += len(graph.GreedyMIS(mis.OverlapGraph(r.Occurrences)))
		}
	}
	b.ReportMetric(float64(exactSum), "mis-exact-total")
	b.ReportMetric(float64(greedySum), "mis-greedy-total")
}

// BenchmarkAblationTrackSweep sweeps the interconnect's routing-track
// count and reports routability of the camera baseline design — the
// interconnect-sensitivity side of the paper's Section 2.3 discussion.
func BenchmarkAblationTrackSweep(b *testing.B) {
	fw := core.New()
	base, err := fw.BaselinePE(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	app := apps.Camera()
	rsMapped, err := rewrite.MapApp(app.Graph, base.Rules, "camera")
	if err != nil {
		b.Fatal(err)
	}
	bal, _ := pipeline.BalanceApp(rsMapped, pipeline.AppOptions{PELatency: 1})
	routable := map[int]bool{}
	for i := 0; i < b.N; i++ {
		for _, tracks := range []int{2, 3, 5} {
			fab := cgra.Default()
			fab.Tracks16 = tracks
			p, err := cgra.Place(context.Background(), bal, fab, cgra.PlaceOptions{Seed: 1, Moves: 50000})
			if err != nil {
				routable[tracks] = false
				continue
			}
			_, err = cgra.RouteAll(context.Background(), p, cgra.RouteOptions{MaxIterations: 12})
			routable[tracks] = err == nil
		}
	}
	report := func(tracks int) float64 {
		if routable[tracks] {
			return 1
		}
		return 0
	}
	b.ReportMetric(report(2), "routable-2trk")
	b.ReportMetric(report(3), "routable-3trk")
	b.ReportMetric(report(5), "routable-5trk")
}

// BenchmarkAblationPipelineStages sweeps the PE pipelining benefit
// threshold (DESIGN.md ablation 5) on a deep merged PE.
func BenchmarkAblationPipelineStages(b *testing.B) {
	m := tech.Default()
	g := ir.NewGraph("deep")
	acc := g.Input("x")
	for i := 0; i < 4; i++ {
		acc = g.OpNode(ir.OpMul, acc, g.Input(string(rune('a'+i))))
	}
	g.Output("o", acc)
	dp, err := merge.FromPattern(g, "deep")
	if err != nil {
		b.Fatal(err)
	}
	spec := pe.FromDatapath("deep", dp)
	var loose, tight *pipeline.PipelinedPE
	for i := 0; i < b.N; i++ {
		loose = pipeline.PipelinePE(spec, m, pipeline.Options{MinGain: 0.30})
		tight = pipeline.PipelinePE(spec, m, pipeline.Options{MinGain: 0.05})
	}
	b.ReportMetric(float64(loose.Stages), "stages-gain30")
	b.ReportMetric(float64(tight.Stages), "stages-gain05")
	b.ReportMetric(tight.PeriodPS, "ps-period-gain05")
}
