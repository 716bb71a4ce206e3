package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/mis"
)

// TestSelectPatternsMatchesLegacy runs SelectPatterns and a frozen copy
// of its map-based predecessor on every suite app for k = 1..6 and
// requires the same patterns, in the same order.
func TestSelectPatternsMatchesLegacy(t *testing.T) {
	fw := New()
	all := apps.All()
	if len(all) != 9 {
		t.Fatalf("suite has %d apps, want 9", len(all))
	}
	picked := 0
	for _, app := range all {
		an, err := fw.Analyze(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 6; k++ {
			got, want := SelectPatterns(an, k), legacySelectPatterns(an, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: selected %d patterns, legacy %d, or a different order", app.Name, k, len(got), len(want))
			}
			picked += len(got)
		}
	}
	if picked == 0 {
		t.Fatal("no app selected any pattern")
	}
}

// legacySelectPatterns is SelectPatterns as it was before its scans went
// dense: frozen as the equivalence oracle.
func legacySelectPatterns(a *Analysis, k int) []mis.Ranked {
	covered := map[graph.NodeID]bool{}
	remaining := append([]mis.Ranked(nil), a.Ranked...)
	var out []mis.Ranked
	for len(out) < k && len(remaining) > 0 {
		bestIdx, bestScore := -1, 0
		var bestOccs []graph.Embedding
		for i, r := range remaining {
			perOcc := r.Pattern.ComputeSize() - 1
			if perOcc <= 0 {
				continue
			}
			occs := legacyAbsorbableDisjoint(a.View, r, covered)
			if score := len(occs) * perOcc; score > bestScore {
				bestIdx, bestScore, bestOccs = i, score, occs
			}
		}
		if bestIdx < 0 {
			break
		}
		for _, occ := range bestOccs {
			for _, v := range occ {
				covered[v] = true
			}
		}
		out = append(out, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out
}

func legacyAbsorbableDisjoint(view *graph.Graph, r mis.Ranked, covered map[graph.NodeID]bool) []graph.Embedding {
	p := r.Pattern.Graph
	sink := -1
	for v := 0; v < p.NumNodes(); v++ {
		if p.OutDegree(graph.NodeID(v)) == 0 {
			if sink >= 0 {
				return nil
			}
			sink = v
		}
	}
	if sink < 0 {
		return nil
	}
	var chosen []graph.Embedding
	taken := map[graph.NodeID]bool{}
	for _, occ := range r.Occurrences {
		ok := true
		inOcc := map[graph.NodeID]bool{}
		for _, v := range occ {
			inOcc[v] = true
		}
		for pi, v := range occ {
			if covered[v] || taken[v] {
				ok = false
				break
			}
			op := ir.OpByName(p.Label(graph.NodeID(pi)))
			if pi == sink || !op.IsCompute() {
				continue
			}
			for _, e := range view.Out(v) {
				if !inOcc[e.To] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		for _, v := range occ {
			taken[v] = true
		}
		chosen = append(chosen, occ)
	}
	return chosen
}
