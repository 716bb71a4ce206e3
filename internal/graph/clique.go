package graph

import (
	"sort"

	"repro/internal/fault"
)

// UndirectedAdj is an adjacency structure for the clique and independent
// set solvers: Adj[v] lists the neighbors of v. It must be symmetric
// (u in Adj[v] iff v in Adj[u]); self-loops are ignored.
type UndirectedAdj [][]int

// MaxWeightClique returns a maximum-weight clique of the undirected graph
// with the given per-vertex weights, as a sorted vertex list, plus its
// total weight. Weights must be non-negative. The solver is an exact
// branch-and-bound with a greedy-coloring upper bound, adequate for the
// compatibility graphs produced by datapath merging (typically well under
// a thousand vertices).
//
// maxSteps bounds the number of branch steps; 0 means a generous default.
// If the budget is exhausted, the best clique found so far is returned
// (still a valid clique, possibly suboptimal). A weights slice whose
// length differs from the adjacency's is a fault.ErrInvariant error.
func MaxWeightClique(adj UndirectedAdj, weights []float64, maxSteps int) ([]int, float64, error) {
	n := len(adj)
	if n == 0 {
		return nil, 0, nil
	}
	if len(weights) != n {
		return nil, 0, fault.Invariantf("graph: MaxWeightClique: len(weights)=%d != len(adj)=%d", len(weights), n)
	}
	if maxSteps <= 0 {
		maxSteps = 5_000_000
	}

	// Order vertices by descending weight (heavier first makes the greedy
	// initial incumbent strong and improves the coloring bound).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	pos := make([]int, n) // pos[v] = index of v in order
	for i, v := range order {
		pos[v] = i
	}

	// Adjacency bitsets in the reordered index space, on one backing array.
	words := (n + 63) / 64
	rows := make(bitset, n*words)
	nb := make([]bitset, n)
	for i := range nb {
		nb[i] = rows[i*words : (i+1)*words : (i+1)*words]
	}
	for v, ns := range adj {
		for _, u := range ns {
			if u == v {
				continue
			}
			nb[pos[v]].set(pos[u])
			nb[pos[u]].set(pos[v])
		}
	}
	w := make([]float64, n)
	for i, v := range order {
		w[i] = weights[v]
	}

	s := newCliqueSolver(nb, w, words, maxSteps)
	best := s.solve(n)
	out := make([]int, len(best))
	for i, v := range best {
		out[i] = order[v]
	}
	sort.Ints(out)
	return out, s.bestW, nil
}

// cliqueSolver is the branch-and-bound state. All scratch lives in
// per-depth frames that are reused across siblings, so a search
// allocates in proportion to its depth, not to the nodes it visits.
type cliqueSolver struct {
	nb     []bitset
	w      []float64
	words  int
	cur    []int // the clique being grown, one vertex per depth
	best   []int
	bestW  float64
	budget int
	frames []*cliqueFrame
}

// newCliqueSolver returns a solver over the n = len(nb) adjacency rows
// of words words each; the current and best cliques share one
// n-per-clique backing array, so growing them never reallocates.
func newCliqueSolver(nb []bitset, w []float64, words, budget int) *cliqueSolver {
	n := len(nb)
	cliques := make([]int, 2*n)
	return &cliqueSolver{nb: nb, w: w, words: words, budget: budget,
		cur: cliques[:0:n], best: cliques[n : n : 2*n]}
}

// cliqueFrame is the scratch of one search depth: its candidate set p
// (filled by the parent), the coloring's working sets, and the colored
// candidates with their cumulative bounds.
type cliqueFrame struct {
	p, remaining, avail bitset
	verts               []int
	bound               []float64
}

// solve searches from the full candidate set of n vertices and returns
// the best clique found, in the solver's index space, in search order.
func (s *cliqueSolver) solve(n int) []int {
	all := s.frame(0, n).p
	for i := 0; i < n; i++ {
		all.set(i)
	}
	s.expand(0, 0)
	return s.best
}

// frame returns the scratch frame for depth d, allocating frames on
// first use in batches — as many as exist, at least four — that share
// backing arrays, so a search of depth D allocates frames O(log D)
// times. A new batch gets room for size candidates per frame (the
// caller passes its own candidate count, which bounds its children's; a
// later, wider use grows a frame's lists).
func (s *cliqueSolver) frame(d, size int) *cliqueFrame {
	for len(s.frames) <= d {
		k, w := max(len(s.frames), 4), s.words
		fs := make([]cliqueFrame, k)
		sets := make(bitset, 3*w*k)
		verts := make([]int, k*size)
		bound := make([]float64, k*size)
		s.frames = append(make([]*cliqueFrame, 0, len(s.frames)+k), s.frames...)
		for i := range fs {
			set, lo, hi := sets[3*w*i:3*w*(i+1):3*w*(i+1)], i*size, (i+1)*size
			fs[i] = cliqueFrame{
				p:         set[:w:w],
				remaining: set[w : 2*w : 2*w],
				avail:     set[2*w:],
				verts:     verts[lo:lo:hi],
				bound:     bound[lo:lo:hi],
			}
			s.frames = append(s.frames, &fs[i])
		}
	}
	return s.frames[d]
}

// expand grows the current clique s.cur (weight curW) using the candidate
// set in frame d.
func (s *cliqueSolver) expand(d int, curW float64) {
	if s.budget <= 0 {
		return
	}
	s.budget--

	if curW > s.bestW {
		s.bestW = curW
		s.best = append(s.best[:0], s.cur...)
	}
	f := s.frames[d]
	if f.p.empty() {
		return
	}
	// Greedy coloring bound: partition p into independent color classes;
	// a clique takes at most one vertex per class, so the sum of class
	// maxima bounds the achievable extra weight.
	s.colorBound(f)
	child := s.frame(d+1, len(f.verts))
	// Visit candidates heaviest-bound-last order reversed for pruning.
	for i := len(f.verts) - 1; i >= 0; i-- {
		v := f.verts[i]
		if curW+f.bound[i] <= s.bestW {
			return // remaining candidates cannot beat the incumbent
		}
		copy(child.p, f.p)
		child.p.andWith(s.nb[v])
		s.cur = append(s.cur, v)
		s.expand(d+1, curW+s.w[v])
		s.cur = s.cur[:len(s.cur)-1]
		f.p.clear(v)
		if s.budget <= 0 {
			return
		}
	}
}

// colorBound greedily colors the frame's candidate set, leaving the
// candidates ordered by color in f.verts and a per-position cumulative
// weight bound in f.bound: bound[i] = max achievable weight using
// verts[0..i]. Color classes are contiguous in verts, so each class's
// bound is filled in as soon as the class is closed.
func (s *cliqueSolver) colorBound(f *cliqueFrame) {
	f.verts = f.verts[:0]
	f.bound = f.bound[:0]
	copy(f.remaining, f.p)
	cum := 0.0
	for !f.remaining.empty() {
		classW := 0.0
		copy(f.avail, f.remaining)
		for {
			v := f.avail.firstSet()
			if v < 0 {
				break
			}
			f.verts = append(f.verts, v)
			if s.w[v] > classW {
				classW = s.w[v]
			}
			f.remaining.clear(v)
			f.avail.clear(v)
			f.avail.andNotWith(s.nb[v])
		}
		cum += classW
		for len(f.bound) < len(f.verts) {
			f.bound = append(f.bound, cum)
		}
	}
}
