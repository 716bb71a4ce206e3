package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
)

func TestMaxWeightCliqueRejectsWeightMismatch(t *testing.T) {
	adj := UndirectedAdj{{1}, {0}}
	clique, total, err := MaxWeightClique(adj, []int64{1}, 0)
	if !errors.Is(err, fault.ErrInvariant) {
		t.Fatalf("mismatched weights: err = %v, want ErrInvariant", err)
	}
	if clique != nil || total != 0 {
		t.Fatalf("error return carried results: %v %v", clique, total)
	}
}

func TestMaxWeightCliqueRejectsBadWeights(t *testing.T) {
	adj := UndirectedAdj{{1}, {0}}
	for _, w := range [][]int64{{1, -1}, {math.MaxInt64, 1}} {
		clique, total, err := MaxWeightClique(adj, w, 0)
		if !errors.Is(err, fault.ErrInvariant) {
			t.Fatalf("weights %v: err = %v, want ErrInvariant", w, err)
		}
		if clique != nil || total != 0 {
			t.Fatalf("error return carried results: %v %v", clique, total)
		}
	}
}

func TestMaxWeightCliqueTriangle(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	adj := UndirectedAdj{
		{1, 2, 3},
		{0, 2},
		{0, 1},
		{0},
	}
	w := []int64{1, 1, 1, 10}
	clique, total, err := MaxWeightClique(adj, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Best is {0,3} with weight 11, beating triangle weight 3.
	if total != 11 {
		t.Fatalf("weight = %v, want 11 (clique %v)", total, clique)
	}
	if !IsClique(adj, clique) {
		t.Fatalf("result %v is not a clique", clique)
	}
}

func TestMaxWeightCliqueSingleVertex(t *testing.T) {
	adj := UndirectedAdj{{}}
	clique, total, err := MaxWeightClique(adj, []int64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) != 1 || total != 5 {
		t.Fatalf("clique=%v total=%v, want [0] 5", clique, total)
	}
}

func TestMaxWeightCliqueEmpty(t *testing.T) {
	clique, total, err := MaxWeightClique(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clique != nil || total != 0 {
		t.Fatalf("empty graph: clique=%v total=%v", clique, total)
	}
}

func TestMaxWeightCliqueComplete(t *testing.T) {
	n := 8
	adj := make(UndirectedAdj, n)
	w := make([]int64, n)
	for i := 0; i < n; i++ {
		w[i] = int64(i + 1)
		for j := 0; j < n; j++ {
			if i != j {
				adj[i] = append(adj[i], j)
			}
		}
	}
	clique, total, err := MaxWeightClique(adj, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) != n || total != 36 {
		t.Fatalf("complete graph: clique=%v total=%v, want all 8 / 36", clique, total)
	}
}

func TestMaxWeightCliqueAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		adjm := make([][]bool, n)
		for i := range adjm {
			adjm[i] = make([]bool, n)
		}
		adj := make(UndirectedAdj, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					adjm[i][j], adjm[j][i] = true, true
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(1 + rng.Intn(9))
		}
		want := bruteForceClique(adjm, w)
		got, total, err := MaxWeightClique(adj, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if total != want {
			t.Fatalf("trial %d: BnB weight %v != brute force %v (clique %v)", trial, total, want, got)
		}
		if !IsClique(adj, got) {
			t.Fatalf("trial %d: %v not a clique", trial, got)
		}
	}
}

func bruteForceClique(adj [][]bool, w []int64) int64 {
	n := len(adj)
	var best int64
	for mask := 1; mask < 1<<n; mask++ {
		var total int64
		ok := true
		var members []int
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for _, j := range members {
				if !adj[i][j] {
					ok = false
					break
				}
			}
			if ok {
				members = append(members, i)
				total += w[i]
			}
		}
		if ok && total > best {
			best = total
		}
	}
	return best
}

func TestMaxWeightCliqueBudgetStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	adj := make(UndirectedAdj, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + rng.Int63n(1<<20)
	}
	clique, total, err := MaxWeightClique(adj, w, 100) // tiny budget
	if err != nil {
		t.Fatal(err)
	}
	if len(clique) == 0 || total <= 0 {
		t.Fatalf("budgeted search returned nothing: %v %v", clique, total)
	}
	if !IsClique(adj, clique) {
		t.Fatalf("budgeted result not a clique: %v", clique)
	}
}

func BenchmarkMaxWeightClique50(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := 50
	adj := make(UndirectedAdj, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + rng.Int63n(10<<20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightClique(adj, w, 0) //nolint:errcheck // inputs are well-formed
	}
}

// IsClique reports whether vs forms a clique in adj (every pair adjacent).
func IsClique(adj UndirectedAdj, vs []int) bool {
	set := make(map[int]map[int]bool, len(adj))
	for v, ns := range adj {
		m := make(map[int]bool, len(ns))
		for _, u := range ns {
			m[u] = true
		}
		set[v] = m
	}
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !set[vs[i]][vs[j]] {
				return false
			}
		}
	}
	return true
}

// TestCliqueAllocs gates the solver's scratch reuse: a call allocates
// for its setup and one frame per search depth, never per branch step,
// so a search a hundred times longer allocates (almost) no more. The
// frozen legacy solver, which allocates at every step, proves the longer
// budget really is a longer search.
func TestCliqueAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	adj, w := randomCliqueInstance(rng, 60, 0.7, 0)
	allocs := func(solve func(budget int), budget int) float64 {
		return testing.AllocsPerRun(5, func() { solve(budget) })
	}
	solver := func(budget int) {
		MaxWeightClique(adj, w, budget) //nolint:errcheck // inputs are well-formed
	}
	fw := float64s(w)
	legacy := func(budget int) { legacyMaxWeightClique(adj, fw, budget) }
	if ls, ll := allocs(legacy, 300), allocs(legacy, 30000); ll < 2*ls {
		t.Fatalf("instance too easy: legacy allocs %v at 300 steps, %v at 30000", ls, ll)
	}
	short, long := allocs(solver, 300), allocs(solver, 30000)
	t.Logf("allocs per call: %v at 300 steps, %v at 30000 steps", short, long)
	// Deeper frames and wider candidate lists may appear in the longer
	// search; anything per-step would add thousands.
	if long > short+16 {
		t.Fatalf("allocs grew with branch steps: %v at 300 steps, %v at 30000", short, long)
	}
	if long > 128 {
		t.Fatalf("%v allocs per call on 60 vertices, want <= 128 (setup + per-depth frames)", long)
	}
}
