package cgra

import (
	"context"
	"testing"

	"repro/internal/apps"
)

// TestAnnealingImprovesWirelength: the simulated-annealing placer must
// beat (or at least match) the constructive seed it starts from on a real
// design.
func TestAnnealingImprovesWirelength(t *testing.T) {
	_, m := smallMapped(t)
	fab := Default()
	seeded, err := Place(context.Background(), m, fab, PlaceOptions{Seed: 5, Moves: 1}) // effectively no annealing
	if err != nil {
		t.Fatal(err)
	}
	annealed, err := Place(context.Background(), m, fab, PlaceOptions{Seed: 5, Moves: 100000})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := seeded.Wirelength(), annealed.Wirelength()
	if w1 > w0 {
		t.Errorf("annealing worsened wirelength: %d -> %d", w0, w1)
	}
	t.Logf("wirelength: seed %d -> annealed %d", w0, w1)
}

// TestPlacementDeterministicPerSeed: identical seeds must reproduce the
// placement exactly (the whole flow is reproducible).
func TestPlacementDeterministicPerSeed(t *testing.T) {
	_, m := smallMapped(t)
	fab := Default()
	p1, err := Place(context.Background(), m, fab, PlaceOptions{Seed: 9, Moves: 20000})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Place(context.Background(), m, fab, PlaceOptions{Seed: 9, Moves: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Loc {
		if p1.Loc[i] != p2.Loc[i] {
			t.Fatalf("node %d placed at %s vs %s", i, p1.Loc[i], p2.Loc[i])
		}
	}
}

// TestAnnealedRoutesShorter: better placement should produce fewer total
// routed hops on a congested fabric.
func TestAnnealedRoutesShorter(t *testing.T) {
	_, m := smallMapped(t)
	fab := Default()
	bad, err := Place(context.Background(), m, fab, PlaceOptions{Seed: 3, Moves: 1})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Place(context.Background(), m, fab, PlaceOptions{Seed: 3, Moves: 100000})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RouteAll(context.Background(), bad, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := RouteAll(context.Background(), good, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rg.TotalHops() > rb.TotalHops() {
		t.Errorf("annealed placement routes longer: %d vs %d hops", rg.TotalHops(), rb.TotalHops())
	}
	t.Logf("hops: seed-only %d -> annealed %d", rb.TotalHops(), rg.TotalHops())
}

// TestAnnealFreezesWithinBudget: the cooling is fitted to the move
// budget, so at any explicit budget, small ones included, every app's
// anneal reaches its freeze threshold before the quench tail begins
// rather than being cut off hot by it.
func TestAnnealFreezesWithinBudget(t *testing.T) {
	fab := Default()
	for _, app := range apps.All() {
		m := appBalanced(t, app)
		for _, perNode := range []int{10, 25, 50, 100} {
			moves := perNode * len(m.Nodes)
			p := &Placement{Fabric: fab, Mapped: m, Loc: make([]Coord, len(m.Nodes))}
			rng := splitMix(1)
			free, _ := freeSites(fab)
			p.seed(&rng, free)
			frozeAt, err := p.anneal(context.Background(), &rng, moves, classNodes(m))
			if err != nil {
				t.Fatal(err)
			}
			quenchAt := moves - int(quenchShare*float64(moves))
			if frozeAt < 0 || frozeAt >= quenchAt {
				t.Errorf("%s at %d moves per node: froze at move %d, quench tail from %d", app.Name, perNode, frozeAt, quenchAt)
			}
		}
	}
}
