package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
)

// TestMapBalanceAllocs gates the mapped-graph stage's allocations on
// camera: MapApp builds each PE's ports and configuration words in one
// allocation apiece and indexes every node's users in one CSR, and
// BalanceApp copies every node's ports onto one backing array and
// appends its registers, so neither allocates per port, per constant,
// per user list or per map entry. With four port maps per PE they took
// about 13 allocations per PE and 1,800 per balance; with a growing
// user slice per node MapApp took 6.3 per PE.
func TestMapBalanceAllocs(t *testing.T) {
	fw := New()
	app := apps.Camera()
	v, err := fw.GeneratePE(context.Background(), "camera_pe2", app.UsedOps(), SelectPatterns(mustAnalyze(t, fw, app), 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rewrite.MapApp(app.Graph, v.RuleSet(), app.Name)
	if err != nil {
		t.Fatal(err)
	}
	opt := pipeline.AppOptions{PELatency: max(v.Pipelined.Stages, 1)}
	mapAllocs := testing.AllocsPerRun(5, func() {
		if _, err := rewrite.MapApp(app.Graph, v.RuleSet(), app.Name); err != nil {
			t.Fatal(err)
		}
	})
	balAllocs := testing.AllocsPerRun(5, func() { pipeline.BalanceApp(m, opt) })
	t.Logf("%d mapped nodes (%d PEs): MapApp %.0f allocs, BalanceApp %.0f", len(m.Nodes), m.NumPEs(), mapAllocs, balAllocs)
	if budget := 4 * float64(m.NumPEs()); mapAllocs > budget {
		t.Errorf("MapApp makes %.0f allocations, budget %.0f (4 per PE)", mapAllocs, budget)
	}
	if balAllocs > 16 {
		t.Errorf("BalanceApp makes %.0f allocations, budget 16", balAllocs)
	}
}
