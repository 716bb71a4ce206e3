package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// legacyMaxWeightClique is the pre-optimization MaxWeightClique, kept
// verbatim (minus argument validation) as a differential oracle. It
// also reports the branch steps it spent and whether its budget ran
// out. Where it finishes, the solver must return the same clique and
// weight: the first maximum-weight clique of the same search order.
// Where it runs out, no faster search can match it (the faster one gets
// further on the same budget), so only validity is required there. Its
// weights are float64; callers pass integers whose sums stay below 2^53,
// so its float arithmetic is exact and it solves the same problem as the
// int64 solver.
func legacyMaxWeightClique(adj UndirectedAdj, weights []float64, maxSteps int) (clique []int, weight float64, steps int, exhausted bool) {
	n := len(adj)
	if n == 0 {
		return nil, 0, 0, false
	}
	if maxSteps <= 0 {
		maxSteps = 5_000_000
	}
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
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	nb := make([]bitset, n)
	for i := range nb {
		nb[i] = newBitset(n)
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
	s := &legacyCliqueSolver{nb: nb, w: w, budget: maxSteps}
	all := newBitset(n)
	for i := 0; i < n; i++ {
		all.set(i)
	}
	s.expand(all, nil, 0)
	out := make([]int, len(s.best))
	for i, v := range s.best {
		out[i] = order[v]
	}
	sort.Ints(out)
	// A search whose last step spends the final unit of budget counts
	// as exhausted too: from the outside it cannot be told apart.
	return out, s.bestW, maxSteps - s.budget, s.budget <= 0
}

type legacyCliqueSolver struct {
	nb     []bitset
	w      []float64
	best   []int
	bestW  float64
	budget int
}

func cloneBitset(b bitset) bitset { return append(bitset(nil), b...) }

func (s *legacyCliqueSolver) expand(p bitset, cur []int, curW float64) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	if curW > s.bestW {
		s.bestW = curW
		s.best = append([]int(nil), cur...)
	}
	if p.empty() {
		return
	}
	verts, bound := s.colorBound(p)
	for i := len(verts) - 1; i >= 0; i-- {
		v := verts[i]
		if curW+bound[i] <= s.bestW {
			return
		}
		np := cloneBitset(p)
		np.andWith(s.nb[v])
		cur = append(cur, v)
		s.expand(np, cur, curW+s.w[v])
		cur = cur[:len(cur)-1]
		p.clear(v)
		if s.budget <= 0 {
			return
		}
	}
}

func (s *legacyCliqueSolver) colorBound(p bitset) (verts []int, bound []float64) {
	remaining := cloneBitset(p)
	var classMax []float64
	var colorOf []int
	for !remaining.empty() {
		classW := 0.0
		avail := cloneBitset(remaining)
		for {
			v := avail.firstSet()
			if v < 0 {
				break
			}
			verts = append(verts, v)
			colorOf = append(colorOf, len(classMax))
			if s.w[v] > classW {
				classW = s.w[v]
			}
			remaining.clear(v)
			avail.clear(v)
			avail.andNotWith(s.nb[v])
		}
		classMax = append(classMax, classW)
	}
	bound = make([]float64, len(verts))
	cum := 0.0
	seen := make([]bool, len(classMax))
	for i := range verts {
		c := colorOf[i]
		if !seen[c] {
			seen[c] = true
			cum += classMax[c]
		}
		bound[i] = cum
	}
	return verts, bound
}

// randomCliqueInstance draws a graph of n vertices with edge density
// dens and weights in one of four regimes: distinct integers below 2^40
// (so sums over 200 vertices stay exact in float64), small integers
// (many ties), all equal, and all zero.
func randomCliqueInstance(rng *rand.Rand, n int, dens float64, regime int) (UndirectedAdj, []int64) {
	adj := make(UndirectedAdj, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < dens {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	w := make([]int64, n)
	for i := range w {
		switch regime % 4 {
		case 0:
			w[i] = rng.Int63n(1 << 40)
		case 1:
			w[i] = rng.Int63n(3)
		case 2:
			w[i] = 1
		case 3:
			w[i] = 0
		}
	}
	return adj, w
}

// float64s converts integer weights for the legacy solver.
func float64s(w []int64) []float64 {
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = float64(x)
	}
	return out
}

// cliqueWeight sums the weights of vs.
func cliqueWeight(w []int64, vs []int) int64 {
	var total int64
	for _, v := range vs {
		total += w[v]
	}
	return total
}

// checkCliqueMatchesLegacy fails t unless the solver returns the frozen
// oracle's clique and weight on an instance the oracle finishes, or a
// valid clique with its true weight on one where the oracle's budget
// runs out. A finished instance is also solved on exactly the steps the
// oracle spent, the tightest budget it finishes within. It reports
// whether the oracle finished.
func checkCliqueMatchesLegacy(t *testing.T, adj UndirectedAdj, w []int64, budget int) bool {
	t.Helper()
	got, gotW, err := MaxWeightClique(adj, w, budget)
	if err != nil {
		t.Fatal(err)
	}
	want, wantW, steps, exhausted := legacyMaxWeightClique(adj, float64s(w), budget)
	if exhausted {
		if !IsClique(adj, got) || cliqueWeight(w, got) != gotW {
			t.Fatalf("n=%d budget=%d (legacy exhausted): got %v weighing %d, reported %d",
				len(adj), budget, got, cliqueWeight(w, got), gotW)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) || float64(gotW) != wantW {
		t.Fatalf("n=%d budget=%d: got %v (%v), legacy %v (%v)", len(adj), budget, got, gotW, want, wantW)
	}
	if steps > 0 {
		tight, tightW, err := MaxWeightClique(adj, w, steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tight, want) || tightW != gotW {
			t.Fatalf("n=%d budget=%d (legacy's own steps): got %v (%v), legacy %v (%v)", len(adj), steps, tight, tightW, want, wantW)
		}
	}
	return true
}

func TestMaxWeightCliqueMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	budgets := []int{0, 1, 2, 7, 50, 400}
	finished := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		// Two in three trials are small enough to search exhaustively;
		// the rest reach 200 vertices under a budget that often runs out.
		n := 1 + rng.Intn(40)
		budget := budgets[trial%len(budgets)]
		if trial%3 == 0 {
			n = 1 + rng.Intn(200)
			budget = 1 + rng.Intn(3000)
		}
		dens := []float64{0.05, 0.3, 0.6, 0.9}[rng.Intn(4)]
		adj, w := randomCliqueInstance(rng, n, dens, trial)
		if checkCliqueMatchesLegacy(t, adj, w, budget) {
			finished++
		}
	}
	t.Logf("%d of %d instances finished within the legacy budget", finished, trials)
	if finished < trials/2 {
		t.Fatalf("only %d of %d instances finished: the equality check barely runs", finished, trials)
	}
}

// FuzzMaxWeightClique checks the solver against the frozen oracle on
// fuzz-chosen graphs: the byte string packs the vertex count, density,
// weight regime and step budget, the seed draws the edges and weights.
func FuzzMaxWeightClique(f *testing.F) {
	f.Add(uint8(10), uint8(128), uint8(0), uint16(0), int64(1))
	f.Add(uint8(60), uint8(200), uint8(1), uint16(30), int64(2))
	f.Add(uint8(5), uint8(255), uint8(3), uint16(0), int64(3))
	f.Add(uint8(120), uint8(40), uint8(2), uint16(500), int64(4))
	f.Fuzz(func(t *testing.T, n, dens, regime uint8, budget uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		adj, w := randomCliqueInstance(rng, 1+int(n)%200, float64(dens)/255, int(regime))
		// Budget 0 is the 5M-step default; keep fuzz iterations short.
		checkCliqueMatchesLegacy(t, adj, w, 1+int(budget)%20000)
	})
}
