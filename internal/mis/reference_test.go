package mis

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/mining"
)

// refAnalyze is Analyze as it was before the overlap graph went to CSR
// form and the exact solver to complement bitset rows: string-keyed
// occurrence dedup, a map-built overlap graph as adjacency lists, and
// the list-based exact and greedy solvers (refDedupeBySet,
// refOverlapGraph, refMaximumIndependentSet, refGreedyMIS), kept
// verbatim but for names and a bool matrix in place of the graph
// package's unexported bitset. It is the oracle Analyze must match
// exactly: same occurrences, same independent set, same exactness.
func refAnalyze(p mining.Pattern) Ranked {
	occ := refDedupeBySet(p.Embeddings)
	adj := refOverlapGraph(occ)
	var (
		set   []int
		exact bool
	)
	if len(occ) <= ExactThreshold {
		set, exact = refMaximumIndependentSet(adj, 0)
	} else {
		set = refGreedyMIS(adj)
	}
	return Ranked{
		Pattern:     p,
		Occurrences: occ,
		MISSize:     len(set),
		Independent: set,
		Exact:       exact,
	}
}

func refDedupeBySet(l *graph.EmbeddingList) []graph.Embedding {
	seen := make(map[string]bool, l.Len())
	var out []graph.Embedding
	for ei := 0; ei < l.Len(); ei++ {
		e := l.Embedding(ei)
		ids := make([]int, len(e))
		for i, v := range e {
			ids[i] = int(v)
		}
		sort.Ints(ids)
		key := make([]byte, 0, len(ids)*3)
		for _, id := range ids {
			key = append(key, byte(id), byte(id>>8), byte(id>>16))
		}
		k := string(key)
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

func refOverlapGraph(occ []graph.Embedding) graph.UndirectedAdj {
	adj := make(graph.UndirectedAdj, len(occ))
	users := make(map[graph.NodeID][]int)
	for i, e := range occ {
		for _, v := range e {
			users[v] = append(users[v], i)
		}
	}
	edge := make(map[[2]int]bool)
	for _, us := range users {
		for i := 0; i < len(us); i++ {
			for j := i + 1; j < len(us); j++ {
				a, b := us[i], us[j]
				if a > b {
					a, b = b, a
				}
				if a == b || edge[[2]int{a, b}] {
					continue
				}
				edge[[2]int{a, b}] = true
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	return adj
}

func refGreedyMIS(adj graph.UndirectedAdj) []int {
	n := len(adj)
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := range adj {
		alive[v] = true
		deg[v] = len(adj[v])
	}
	var mis []int
	remaining := n
	for remaining > 0 {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		mis = append(mis, best)
		kill := append([]int{best}, adj[best]...)
		for _, v := range kill {
			if !alive[v] {
				continue
			}
			alive[v] = false
			remaining--
			for _, u := range adj[v] {
				if alive[u] {
					deg[u]--
				}
			}
		}
	}
	sort.Ints(mis)
	return mis
}

func refMaximumIndependentSet(adj graph.UndirectedAdj, maxSteps int) ([]int, bool) {
	n := len(adj)
	if n == 0 {
		return nil, true
	}
	if maxSteps <= 0 {
		maxSteps = 2_000_000
	}
	comp := make(graph.UndirectedAdj, n)
	isAdj := make([][]bool, n)
	for v := range adj {
		isAdj[v] = make([]bool, n)
		for _, u := range adj[v] {
			if u != v {
				isAdj[v][u] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v && !isAdj[v][u] {
				comp[v] = append(comp[v], u)
			}
		}
	}
	weights := make([]int64, n)
	for i := range weights {
		weights[i] = 1
	}
	clique, _, err := graph.MaxWeightClique(comp, weights, maxSteps)
	greedy := refGreedyMIS(adj)
	best := clique
	if err != nil {
		best = nil
	}
	if len(greedy) > len(best) {
		best = greedy
	}
	proven := n <= 48 || len(best) == n
	sort.Ints(best)
	return best, proven
}

// checkMatchesReference analyzes p both ways and fails on any
// difference in occurrences, independent set, MIS size or exactness,
// or in the overlap graph's neighbor sets.
func checkMatchesReference(t *testing.T, label string, p mining.Pattern) Ranked {
	t.Helper()
	got, want := Analyze(p), refAnalyze(p)
	if !reflect.DeepEqual(got.Occurrences, want.Occurrences) {
		t.Fatalf("%s: occurrences differ: %d vs reference %d", label, len(got.Occurrences), len(want.Occurrences))
	}
	if !reflect.DeepEqual(got.Independent, want.Independent) || got.MISSize != want.MISSize || got.Exact != want.Exact {
		t.Fatalf("%s: independent %v (size %d, exact %v), reference %v (size %d, exact %v)",
			label, got.Independent, got.MISSize, got.Exact, want.Independent, want.MISSize, want.Exact)
	}
	g, adj := OverlapGraph(got.Occurrences), refOverlapGraph(want.Occurrences)
	for v := range adj {
		ns := make([]int, 0, len(adj[v]))
		for _, u := range g.Neighbors(v) {
			ns = append(ns, int(u))
		}
		slices.Sort(ns)
		ref := slices.Clone(adj[v])
		slices.Sort(ref)
		if !slices.Equal(ns, ref) {
			t.Fatalf("%s: occurrence %d overlaps %v, reference %v", label, v, ns, ref)
		}
	}
	return got
}

// TestAnalyzeMatchesReference: on every pattern mined from every
// registry app at its effective support (one fortieth of the compute
// ops, floored at 4) and at supports 4 and 8, Analyze returns exactly
// what the map-based reference returns.
func TestAnalyzeMatchesReference(t *testing.T) {
	pats, exact, greedy := 0, 0, 0
	for _, app := range apps.All() {
		view, _ := mining.ComputeView(app.Graph)
		for _, support := range []int{max(app.ComputeOps()/40, 4), 4, 8} {
			mined, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: support, MaxNodes: 4, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range mined {
				r := checkMatchesReference(t, app.Name+"/"+p.Code, p)
				pats++
				if len(r.Occurrences) <= ExactThreshold {
					exact++
				} else {
					greedy++
				}
			}
		}
	}
	if exact == 0 || greedy == 0 {
		t.Fatalf("%d exact and %d greedy analyses; want both paths exercised", exact, greedy)
	}
	t.Logf("%d patterns: %d solved exactly, %d greedily", pats, exact, greedy)
}

// TestAnalyzeMatchesReferenceRandom drives both analyses over seeded
// random embedding lists with 39, 40 and 41 distinct occurrences (either
// side of ExactThreshold) and over 200, interleaved with automorphic
// duplicates (permuted rows of earlier sets) that dedup must drop, the
// first copy winning.
func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 39, 40, 41, 201, 350} {
		for trial := 0; trial < 6; trial++ {
			k := 2 + rng.Intn(4)
			nodes := n/2 + k + rng.Intn(2*n+8)
			l := randomEmbeddings(rng, n, k, nodes)
			r := checkMatchesReference(t, "random", mining.Pattern{Embeddings: l})
			if len(r.Occurrences) != n {
				t.Fatalf("n=%d k=%d: %d occurrences after dedup, want %d", n, k, len(r.Occurrences), n)
			}
		}
	}
}

// randomEmbeddings returns a list of n distinct node sets of k nodes
// drawn from [0, nodes), each followed with probability 1/3 by a
// permuted copy of some earlier row.
func randomEmbeddings(rng *rand.Rand, n, k, nodes int) *graph.EmbeddingList {
	l := graph.NewEmbeddingList(k)
	seen := map[string]bool{}
	var rows [][]int32
	for len(rows) < n {
		row := make([]int32, 0, k)
		for _, v := range rng.Perm(nodes)[:k] {
			row = append(row, int32(v))
		}
		key := slices.Clone(row)
		slices.Sort(key)
		if seen[string(fmtKey(key))] {
			continue
		}
		seen[string(fmtKey(key))] = true
		rows = append(rows, row)
		l.AppendRow(row)
		if rng.Intn(3) == 0 {
			dup := slices.Clone(rows[rng.Intn(len(rows))])
			rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
			l.AppendRow(dup)
		}
	}
	return l
}

func fmtKey(vs []int32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// TestAnalyzeAllocs gates the MIS stage's allocations: analyzing every
// pattern of camera at its effective support stays within a fixed
// number of allocations per pattern (a constant set of slices, none
// per occurrence, edge or branch step), where the map-based reference
// needs an order of magnitude more.
func TestAnalyzeAllocs(t *testing.T) {
	app := apps.Camera()
	view, _ := mining.ComputeView(app.Graph)
	pats, err := mining.Mine(context.Background(), view, mining.Options{MinSupport: max(app.ComputeOps()/40, 4), MaxNodes: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	per := func(analyze func(mining.Pattern) Ranked) float64 {
		return testing.AllocsPerRun(5, func() {
			for _, p := range pats {
				analyze(p)
			}
		}) / float64(len(pats))
	}
	got, ref := per(Analyze), per(refAnalyze)
	t.Logf("%d patterns: %.1f allocs per Analyze, reference %.1f", len(pats), got, ref)
	if got > 40 {
		t.Errorf("Analyze makes %.1f allocations per pattern, budget 40", got)
	}
}
