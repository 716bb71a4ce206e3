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

	s := &cliqueSolver{nb: nb, w: w, budget: maxSteps, words: words}
	all := s.frame(0, n).p
	for i := 0; i < n; i++ {
		all.set(i)
	}
	s.expand(0, 0)

	out := make([]int, len(s.best))
	for i, v := range s.best {
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

// cliqueFrame is the scratch of one search depth: its candidate set p
// (filled by the parent), the coloring's working sets, and the colored
// candidates with their cumulative bounds.
type cliqueFrame struct {
	p, remaining, avail bitset
	verts               []int
	bound               []float64
}

// frame returns the scratch frame for depth d, allocating it on first use
// with room for size candidates (the caller passes its own candidate
// count, which bounds the first child's; a later, wider use grows it).
func (s *cliqueSolver) frame(d, size int) *cliqueFrame {
	for len(s.frames) <= d {
		w := s.words
		sets := make(bitset, 3*w)
		s.frames = append(s.frames, &cliqueFrame{
			p:         sets[:w:w],
			remaining: sets[w : 2*w : 2*w],
			avail:     sets[2*w:],
			verts:     make([]int, 0, size),
			bound:     make([]float64, 0, size),
		})
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
