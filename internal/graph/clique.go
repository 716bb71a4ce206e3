package graph

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/fault"
)

// UndirectedAdj is an adjacency structure for the clique and independent
// set solvers: Adj[v] lists the neighbors of v. It must be symmetric
// (u in Adj[v] iff v in Adj[u]); self-loops are ignored.
type UndirectedAdj [][]int

// MaxWeightClique returns a maximum-weight clique of the undirected graph
// with the given per-vertex weights, as a sorted vertex list, plus its
// total weight. The solver is an exact branch-and-bound with a
// greedy-coloring upper bound, adequate for the compatibility graphs
// produced by datapath merging (typically well under a thousand
// vertices). Among cliques of maximum weight it returns the first one
// its depth-first order reaches (vertices by descending weight, then
// index); searches longer than four steps per vertex are steered to
// that clique by an oracle (see cliqueOracle).
//
// maxSteps bounds the number of branch steps; 0 means a generous
// default. If the budget is exhausted, the best clique found so far is
// returned (still a valid clique, possibly suboptimal). The search never
// takes more steps than it would without the oracle, so on any budget it
// would have finished within it returns the same clique. The oracle has
// a budget of its own, the steps the search has left when it starts; if
// that runs out, the search goes on without it.
//
// A weights slice whose length differs from the adjacency's, a negative
// weight, or weights whose total overflows int64 is a fault.ErrInvariant
// error.
func MaxWeightClique(adj UndirectedAdj, weights []int64, maxSteps int) ([]int, int64, error) {
	clique, total, _, err := maxWeightClique(adj, weights, maxSteps)
	return clique, total, err
}

// maxWeightClique is MaxWeightClique that also reports the branch steps
// it spent, the oracle's included.
func maxWeightClique(adj UndirectedAdj, weights []int64, maxSteps int) ([]int, int64, int, error) {
	n := len(adj)
	if n == 0 {
		return nil, 0, 0, nil
	}
	if len(weights) != n {
		return nil, 0, 0, fault.Invariantf("graph: MaxWeightClique: len(weights)=%d != len(adj)=%d", len(weights), n)
	}
	var total int64
	for v, x := range weights {
		if x < 0 {
			return nil, 0, 0, fault.Invariantf("graph: MaxWeightClique: weights[%d]=%d is negative", v, x)
		}
		if total > math.MaxInt64-x {
			return nil, 0, 0, fault.Invariantf("graph: MaxWeightClique: total weight overflows int64")
		}
		total += x
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
	nb := bitRows(n, words)
	for v, ns := range adj {
		for _, u := range ns {
			if u == v {
				continue
			}
			nb[pos[v]].set(pos[u])
			nb[pos[u]].set(pos[v])
		}
	}
	w := make([]int64, n)
	for i, v := range order {
		w[i] = weights[v]
	}

	s := newCliqueSolver(nb, w, words, maxSteps)
	// Most merge searches finish within 4·n steps; they never pay for
	// building the oracle.
	if maxSteps > 4*n {
		s.oracleAt = maxSteps - 4*n
	}
	best := s.solve(n)
	out := make([]int, len(best))
	for i, v := range best {
		out[i] = order[v]
	}
	sort.Ints(out)
	steps := maxSteps - s.budget
	if s.oracle != nil {
		steps += s.oracleAt - s.oracle.s.budget
	}
	return out, s.bestW, steps, nil
}

// bitRows returns n empty rows of words words each, on one backing array.
func bitRows(n, words int) []bitset {
	rows := make(bitset, n*words)
	nb := make([]bitset, n)
	for i := range nb {
		nb[i] = rows[i*words : (i+1)*words : (i+1)*words]
	}
	return nb
}

// cliqueSolver is the branch-and-bound state. All scratch lives in
// per-depth frames that are reused across siblings, so a search
// allocates in proportion to its depth, not to the nodes it visits.
type cliqueSolver struct {
	nb     []bitset
	w      []int64
	words  int
	cur    []int // the clique being grown, one vertex per depth
	best   []int
	bestW  int64
	budget int
	// goal stops the search at the first clique of at least this
	// weight (math.MaxInt64: never), setting done. Once the oracle has
	// set goal to the optimum, floor is goal-1: a subtree that cannot
	// exceed it holds no optimum.
	goal  int64
	floor int64
	done  bool
	// oracleAt is the budget left at which the oracle starts (-1:
	// never), with a budget of as many steps; oracle is nil until then.
	oracleAt int
	oracle   *cliqueOracle
	frames   []*cliqueFrame
}

// newCliqueSolver returns a solver over the n = len(nb) adjacency rows
// of words words each; the current and best cliques share one
// n-per-clique backing array, so growing them never reallocates.
func newCliqueSolver(nb []bitset, w []int64, words, budget int) *cliqueSolver {
	n := len(nb)
	cliques := make([]int, 2*n)
	return &cliqueSolver{nb: nb, w: w, words: words, budget: budget,
		goal: math.MaxInt64, oracleAt: -1,
		cur: cliques[:0:n], best: cliques[n : n : 2*n]}
}

// cliqueFrame is the scratch of one search depth: its candidate set p
// (filled by the parent), the coloring's working sets, and the colored
// candidates with their cumulative bounds.
type cliqueFrame struct {
	p, remaining, avail bitset
	verts               []int
	bound               []int64
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
		bound := make([]int64, k*size)
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
//
// The visit order depends only on the candidate sets, never on the
// incumbent, and a subtree holding a heavier clique than the incumbent
// is never pruned; so the answer is the first clique of optimum weight
// W* in that order. Once the oracle knows W*, a child is entered only if
// its candidates can still complete a clique of weight W*, and the
// search stops at the first clique that weighs W*: the same clique,
// reached without visiting the subtrees that cannot hold it or the ones
// after it.
func (s *cliqueSolver) expand(d int, curW int64) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	if s.budget == s.oracleAt && s.startOracle() {
		return
	}

	if curW > s.bestW {
		s.bestW = curW
		s.best = append(s.best[:0], s.cur...)
		if curW >= s.goal {
			s.done = true
			return
		}
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
		if curW+f.bound[i] <= max(s.bestW, s.floor) {
			return // remaining candidates cannot beat the incumbent
		}
		copy(child.p, f.p)
		child.p.andWith(s.nb[v])
		if s.oracle == nil || s.oracle.reaches(child.p, s.goal-curW-s.w[v]) {
			s.cur = append(s.cur, v)
			s.expand(d+1, curW+s.w[v])
			s.cur = s.cur[:len(s.cur)-1]
		}
		f.p.clear(v)
		if s.budget <= 0 || s.done {
			return
		}
	}
}

// startOracle builds the oracle and solves it for the optimum weight
// W*, then sets W* as the search's goal. Before this point the search
// ran exactly as it would without an oracle, so if the incumbent already
// weighs W* it is the first such clique; if not, that clique still lies
// ahead. It reports whether the search should stop because the
// incumbent is optimal. An oracle that runs out of budget before it
// knows W* sets no goal and answers every query yes.
func (s *cliqueSolver) startOracle() bool {
	s.oracle = newCliqueOracle(s.nb, s.w, s.words, s.oracleAt)
	o := s.oracle.s
	o.solve(len(s.nb))
	if o.budget <= 0 {
		return false
	}
	s.goal, s.floor = o.bestW, o.bestW-1
	s.done = s.bestW >= s.goal
	return s.done
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
	var cum int64
	for !f.remaining.empty() {
		var classW int64
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

// cliqueOracle answers, for a candidate set of the main search, whether
// it holds a clique of at least a given weight. It runs the same
// branch-and-bound on a copy of the graph in another vertex order —
// descending degree, then descending weight, then index — where both
// the optimum and these decisions take far fewer steps than in the main
// search's weight order. Its frames serve every query, so after its
// setup a query allocates nothing.
type cliqueOracle struct {
	s   *cliqueSolver
	pos []int // pos[v] = the oracle's index of the main search's vertex v
}

func newCliqueOracle(nb []bitset, w []int64, words, budget int) *cliqueOracle {
	n := len(nb)
	deg := make([]int, n)
	order := make([]int, n)
	for v, row := range nb {
		deg[v], order[v] = row.count(), v
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if deg[x] != deg[y] {
			return deg[x] > deg[y]
		}
		if w[x] != w[y] {
			return w[x] > w[y]
		}
		return x < y
	})
	pos := deg // deg is dead once order is sorted
	for i, v := range order {
		pos[v] = i
	}
	onb := bitRows(n, words)
	ow := make([]int64, n)
	for i, v := range order {
		ow[i] = w[v]
		for wi, word := range nb[v] {
			for ; word != 0; word &= word - 1 {
				onb[i].set(pos[wi*64+bits.TrailingZeros64(word)])
			}
		}
	}
	return &cliqueOracle{s: newCliqueSolver(onb, ow, words, budget), pos: pos}
}

// reaches reports whether the main search's candidate set p holds a
// clique of weight at least t. Once the oracle's budget is
// spent it answers yes: the main search then visits what it would have
// visited without the oracle, and still stops at its goal.
func (o *cliqueOracle) reaches(p bitset, t int64) bool {
	s := o.s
	if t <= 0 || s.budget <= 0 {
		return true // the empty clique, or no budget left to decide
	}
	root := s.frames[0].p
	clear(root)
	var sum int64
	for wi, word := range p {
		for ; word != 0; word &= word - 1 {
			v := o.pos[wi*64+bits.TrailingZeros64(word)]
			root.set(v)
			sum += s.w[v]
		}
	}
	if sum < t {
		return false // all of p together weighs less than t
	}
	s.cur, s.best = s.cur[:0], s.best[:0]
	s.bestW, s.goal, s.done = t-1, t, false
	s.expand(0, 0)
	return s.done || s.budget <= 0
}
