package graph

import (
	"math"
	"sort"
)

// CSR is an undirected graph in compressed sparse row form: the
// neighbors of vertex v are Adj[Off[v]:Off[v+1]], so len(Off) is one
// more than the vertex count. It must be symmetric (u lists v iff v
// lists u); self-loops are ignored.
type CSR struct {
	Off []int32
	Adj []int32
}

// Len returns the vertex count.
func (g CSR) Len() int { return max(len(g.Off)-1, 0) }

// Neighbors returns the neighbor list of v; callers must not modify it.
func (g CSR) Neighbors(v int) []int32 { return g.Adj[g.Off[v]:g.Off[v+1]] }

// GreedyMIS returns a maximal independent set of g, built greedily by
// repeatedly taking a minimum-degree vertex (ties: lowest index) and
// removing its neighborhood. The result is always maximal (no vertex
// can be added) but not necessarily maximum. It keeps two slices of
// per-vertex state and touches no map, so it scales to the unbounded
// occurrence counts of user kernels.
func GreedyMIS(g CSR) []int {
	n := g.Len()
	alive := make([]bool, n)
	deg := make([]int32, n)
	for v := range alive {
		alive[v] = true
		deg[v] = g.Off[v+1] - g.Off[v]
	}
	var mis []int
	for remaining := n; remaining > 0; {
		best, bestDeg := -1, int32(math.MaxInt32)
		for v, a := range alive {
			if a && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		mis = append(mis, best)
		remaining -= g.kill(best, alive, deg)
		for _, u := range g.Neighbors(best) {
			remaining -= g.kill(int(u), alive, deg)
		}
	}
	sort.Ints(mis)
	return mis
}

// kill removes v from the greedy's live graph, returning 1 if it was
// alive and 0 otherwise.
func (g CSR) kill(v int, alive []bool, deg []int32) int {
	if !alive[v] {
		return 0
	}
	alive[v] = false
	for _, u := range g.Neighbors(v) {
		if alive[u] {
			deg[u]--
		}
	}
	return 1
}

// MaximumIndependentSet returns a maximum (largest possible) independent
// set of g, sorted, found exactly by branch and bound unless maxSteps
// branch steps (0: a default of 2,000,000) run out; the greedy set then
// stands in when it is larger. The second return value reports whether
// the answer is proven optimal.
//
// A maximum independent set of g is a maximum clique of its complement,
// so this runs the clique solver's search with unit weights and no
// oracle on complement rows built straight from g: one word per row up
// to 64 vertices. Unit weights keep vertex index order, so the set is the
// one MaxWeightClique returns on the complement's adjacency lists.
func MaximumIndependentSet(g CSR, maxSteps int) ([]int, bool) {
	n := g.Len()
	if n == 0 {
		return nil, true
	}
	if maxSteps <= 0 {
		maxSteps = 2_000_000
	}
	words := (n + 63) / 64
	rows := make(bitset, n*words)
	comp := make([]bitset, n)
	for v := range comp {
		row := rows[v*words : (v+1)*words : (v+1)*words]
		for i := range row {
			row[i] = ^uint64(0)
		}
		if tail := n % 64; tail != 0 {
			row[words-1] = 1<<uint(tail) - 1
		}
		row.clear(v)
		for _, u := range g.Neighbors(v) {
			row.clear(int(u))
		}
		comp[v] = row
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	s := newCliqueSolver(comp, w, words, maxSteps)
	best := s.solve(n)
	if s.budget <= 0 {
		// The search may have stopped short of the maximum; only then
		// can the greedy set be larger.
		if greedy := GreedyMIS(g); len(greedy) > len(best) {
			best = greedy
		}
	}
	sort.Ints(best)
	return best, n <= 48 || len(best) == n
}

// IsIndependentSet reports whether vs is an independent set in g.
func IsIndependentSet(g CSR, vs []int) bool {
	in := make([]bool, g.Len())
	for _, v := range vs {
		in[v] = true
	}
	for _, v := range vs {
		for _, u := range g.Neighbors(v) {
			if in[u] && int(u) != v {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether vs is independent and no further
// vertex can be added while staying independent.
func IsMaximalIndependentSet(g CSR, vs []int) bool {
	if !IsIndependentSet(g, vs) {
		return false
	}
	in := make([]bool, g.Len())
	for _, v := range vs {
		in[v] = true
	}
	for v := range in {
		if in[v] {
			continue
		}
		conflict := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				conflict = true
				break
			}
		}
		if !conflict {
			return false
		}
	}
	return true
}
