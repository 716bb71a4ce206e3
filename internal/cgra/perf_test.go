package cgra

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
)

// appBalanced maps an application onto the baseline PE and balances it
// with single-stage PE pipelining — the same preparation the evaluation
// harness does before PnR, so perf tests measure realistic designs.
func appBalanced(tb testing.TB, app *apps.App) *rewrite.Mapped {
	tb.Helper()
	spec := pe.FromDatapath("base", merge.BaselinePE(ir.BaselineALUOps()))
	rs, err := rewrite.SynthesizeRuleSet(spec, nil, ir.BaselineALUOps())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := rewrite.MapApp(app.Graph, rs, app.Name)
	if err != nil {
		tb.Fatal(err)
	}
	bal, _ := pipeline.BalanceApp(m, pipeline.AppOptions{PELatency: 1})
	return bal
}

func cameraBalanced(tb testing.TB) *rewrite.Mapped { return appBalanced(tb, apps.Camera()) }

// TestAnnealAllocs pins the annealer's inner loop at zero allocations
// per proposal: the neighbour lists, the occupancy and compressed site
// tables and the inlined generator must absorb everything the old
// map-based cost function allocated. It steps at the full window and at
// radius 1, hot and at the quench.
func TestAnnealAllocs(t *testing.T) {
	bal := cameraBalanced(t)
	p, err := Place(context.Background(), bal, Default(), PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := splitMix(7)
	s := newAnnealState(p, classNodes(p.Mapped), &rng)
	if s == nil {
		t.Fatal("no anneal state for a real design")
	}
	for _, c := range []struct {
		t float64
		r int32
	}{{5, 32}, {0.5, 1}, {0, 1}} {
		s.t = c.t
		avg := testing.AllocsPerRun(5000, func() { s.step(c.r) })
		if avg > 0 {
			t.Errorf("anneal step (T=%g, r=%d) allocates %.2f objects per move, want 0", c.t, c.r, avg)
		}
	}
}

// TestRouteAllocs bounds the router's allocations per routed net. The
// dense-slice router allocates one exact-size path per net plus O(1)
// working state and the final usage maps; four objects per net is an
// order of magnitude under the old map-based router (~200/net) while
// leaving headroom against Go runtime noise.
func TestRouteAllocs(t *testing.T) {
	bal := cameraBalanced(t)
	p, err := Place(context.Background(), bal, Default(), PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nets := collectNets(p.Mapped)
	if len(nets) == 0 {
		t.Fatal("no nets")
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := RouteAll(context.Background(), p, RouteOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	perNet := avg / float64(len(nets))
	t.Logf("RouteAll: %.0f allocs total, %.2f per net (%d nets)", avg, perNet, len(nets))
	if perNet > 4 {
		t.Errorf("router allocates %.2f objects per routed net, want <= 4", perNet)
	}
}

// routingsEqual reports whether two routings agree on everything the
// rest of the pipeline consumes: paths, usage planes, iteration count.
func routingsEqual(t *testing.T, label string, a, b *Routing) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Errorf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatalf("%s: %d vs %d routes", label, len(a.Routes), len(b.Routes))
	}
	for i := range a.Routes {
		if a.Routes[i].Net != b.Routes[i].Net {
			t.Fatalf("%s: route %d nets differ", label, i)
		}
		if !reflect.DeepEqual(a.Routes[i].Path, b.Routes[i].Path) {
			t.Errorf("%s: route %d (%d->%d) paths differ:\n%v\n%v", label, i,
				a.Routes[i].Net.Src, a.Routes[i].Net.Dst, a.Routes[i].Path, b.Routes[i].Path)
			return
		}
	}
	if !reflect.DeepEqual(a.Use16, b.Use16) {
		t.Errorf("%s: Use16 differs", label)
	}
	if !reflect.DeepEqual(a.Use1, b.Use1) {
		t.Errorf("%s: Use1 differs", label)
	}
}

// TestIncrementalMatchesFullReroute: on real placements the incremental
// router must produce the same routing (paths, usage, iteration count)
// as the full-reroute reference implementation.
func TestIncrementalMatchesFullReroute(t *testing.T) {
	for _, app := range []*apps.App{apps.Camera(), apps.Harris(), apps.ResNet()} {
		bal := appBalanced(t, app)
		p, err := Place(context.Background(), bal, Default(), PlaceOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := RouteAll(context.Background(), p, RouteOptions{})
		if err != nil {
			t.Fatalf("%s incremental: %v", app.Name, err)
		}
		full, err := RouteAll(context.Background(), p, RouteOptions{FullReroute: true})
		if err != nil {
			t.Fatalf("%s full: %v", app.Name, err)
		}
		routingsEqual(t, app.Name, inc, full)
	}
}

// TestIncrementalConvergesUnderCongestion forces multi-round negotiation
// (a 3-track fabric) and checks the incremental router still converges
// to a capacity-compliant routing. Under real congestion incremental
// and full rip-up legitimately negotiate different (both valid)
// solutions — kept nets do not re-route — so this asserts convergence
// and legality rather than path equality.
func TestIncrementalConvergesUnderCongestion(t *testing.T) {
	bal := cameraBalanced(t)
	fab := Default()
	fab.Tracks16 = 3
	p, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RouteAll(context.Background(), p, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations < 2 {
		t.Fatalf("expected multi-round negotiation on 3 tracks, converged in %d", r.Iterations)
	}
	for e, u := range r.Use16 {
		if u > fab.Tracks16 {
			t.Errorf("edge %v oversubscribed: %d > %d", e, u, fab.Tracks16)
		}
	}
	for e, u := range r.Use1 {
		if u > fab.Tracks1 {
			t.Errorf("1-bit edge %v oversubscribed: %d > %d", e, u, fab.Tracks1)
		}
	}
	// The same fabric must also converge under the reference full
	// reroute; both modes answer the same legality question.
	if _, err := RouteAll(context.Background(), p, RouteOptions{FullReroute: true}); err != nil {
		t.Fatalf("full reroute: %v", err)
	}
}

// TestPortfolioPlacement pins the portfolio's determinism contract:
// Seeds<=1 is byte-identical to a plain Place call, the selection is
// invariant to the worker count, and widening the portfolio never
// worsens the selected wirelength.
func TestPortfolioPlacement(t *testing.T) {
	bal := cameraBalanced(t)
	fab := Default()
	single, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Loc, one.Loc) {
		t.Error("Seeds=1 placement differs from the plain single-seed placement")
	}

	// The portfolio runs at most GOMAXPROCS anneals at once; one worker
	// and the default must select the same placement.
	prev := runtime.GOMAXPROCS(1)
	serial, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1, Seeds: 4})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Loc, wide.Loc) {
		t.Error("portfolio selection depends on the worker count")
	}
	if ws, ww := single.Wirelength(), wide.Wirelength(); ww > ws {
		t.Errorf("portfolio of 4 selected wirelength %d, worse than single seed %d", ww, ws)
	}
	// Consecutive seeds (the portfolio's, and the retry ladder's
	// offsets) anneal different trajectories.
	for seed := int64(2); seed <= 4; seed++ {
		other, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(other.Loc, single.Loc) {
			t.Errorf("seeds 1 and %d place identically", seed)
		}
	}

	// Repeated runs are bit-stable.
	again, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Loc, wide.Loc) {
		t.Error("portfolio placement is not reproducible across runs")
	}
}

// TestPortfolioCapacityError: a design that cannot fit fails the same
// way through the portfolio path as through the single-seed path.
func TestPortfolioCapacityError(t *testing.T) {
	bal := cameraBalanced(t)
	fab := NewFabric(2, 2) // far too small for the camera pipeline
	_, errSingle := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1})
	_, errWide := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1, Seeds: 4})
	if errSingle == nil || errWide == nil {
		t.Fatal("expected capacity errors")
	}
	if fmt.Sprint(errSingle) != fmt.Sprint(errWide) {
		t.Errorf("portfolio capacity error %q differs from single-seed %q", errWide, errSingle)
	}
}

// BenchmarkPlaceCamera measures one full simulated-annealing placement
// of the camera pipeline: the constructive seed plus an anneal of the
// automatic budget, 50 moves per mapped node.
func BenchmarkPlaceCamera(b *testing.B) {
	bal := cameraBalanced(b)
	fab := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteCamera measures one full negotiated-congestion routing
// of the placed camera pipeline.
func BenchmarkRouteCamera(b *testing.B) {
	p, err := Place(context.Background(), cameraBalanced(b), Default(), PlaceOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RouteAll(context.Background(), p, RouteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacePortfolio measures a 4-seed concurrent placement
// portfolio (the retry-ladder and -seeds configuration).
func BenchmarkPlacePortfolio(b *testing.B) {
	bal := cameraBalanced(b)
	fab := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(context.Background(), bal, fab, PlaceOptions{Seed: 1, Seeds: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
