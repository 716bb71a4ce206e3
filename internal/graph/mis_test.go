package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyMISPath(t *testing.T) {
	// Path 0-1-2-3-4: maximum independent set is {0,2,4}.
	g := CSRFromAdj(UndirectedAdj{{1}, {0, 2}, {1, 3}, {2, 4}, {3}})
	mis := GreedyMIS(g)
	if !IsMaximalIndependentSet(g, mis) {
		t.Fatalf("greedy result %v not maximal independent", mis)
	}
	if len(mis) != 3 {
		t.Fatalf("greedy on path-5 = %v (size %d), want size 3", mis, len(mis))
	}
}

func TestGreedyMISEmptyAndSingleton(t *testing.T) {
	if got := GreedyMIS(CSR{}); len(got) != 0 {
		t.Errorf("empty graph MIS = %v", got)
	}
	if got := GreedyMIS(CSRFromAdj(nil)); len(got) != 0 {
		t.Errorf("empty graph MIS = %v", got)
	}
	if got := GreedyMIS(CSRFromAdj(UndirectedAdj{{}})); len(got) != 1 {
		t.Errorf("singleton MIS = %v, want one vertex", got)
	}
}

func TestMaximumIndependentSetExactSmall(t *testing.T) {
	// 5-cycle: maximum independent set size 2.
	g := CSRFromAdj(UndirectedAdj{{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}})
	mis, proven := MaximumIndependentSet(g, 0)
	if len(mis) != 2 {
		t.Fatalf("C5 maximum IS size = %d, want 2 (%v)", len(mis), mis)
	}
	if !proven {
		t.Error("C5 should be proven optimal")
	}
	if !IsIndependentSet(g, mis) {
		t.Fatalf("%v not independent", mis)
	}
}

func TestMaximumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(10)
		adj := make(UndirectedAdj, n)
		adjm := make([][]bool, n)
		for i := range adjm {
			adjm[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
					adjm[i][j], adjm[j][i] = true, true
				}
			}
		}
		want := bruteForceMIS(adjm)
		got, _ := MaximumIndependentSet(CSRFromAdj(adj), 0)
		if len(got) != want {
			t.Fatalf("trial %d: exact MIS size %d != brute force %d", trial, len(got), want)
		}
	}
}

func bruteForceMIS(adj [][]bool) int {
	n := len(adj)
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		size := 0
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			size++
			for j := i + 1; j < n; j++ {
				if mask&(1<<j) != 0 && adj[i][j] {
					ok = false
					break
				}
			}
		}
		if ok && size > best {
			best = size
		}
	}
	return best
}

// Property: GreedyMIS always produces a maximal independent set, on any
// random graph.
func TestGreedyMISAlwaysMaximalProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%40) + 1
		p := float64(pRaw%90)/100 + 0.05
		rng := rand.New(rand.NewSource(seed))
		adj := make(UndirectedAdj, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		g := CSRFromAdj(adj)
		return IsMaximalIndependentSet(g, GreedyMIS(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact solver never returns a smaller set than greedy.
func TestExactAtLeastGreedyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		adj := make(UndirectedAdj, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		g := CSRFromAdj(adj)
		exact, _ := MaximumIndependentSet(g, 0)
		greedy := GreedyMIS(g)
		return len(exact) >= len(greedy) && IsIndependentSet(g, exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIsIndependentSetRejects(t *testing.T) {
	g := CSRFromAdj(UndirectedAdj{{1}, {0}})
	if IsIndependentSet(g, []int{0, 1}) {
		t.Fatal("adjacent pair accepted as independent")
	}
	if !IsIndependentSet(g, []int{0}) {
		t.Fatal("singleton rejected")
	}
}

// CSRFromAdj packs adjacency lists into CSR form, keeping each list's
// order.
func CSRFromAdj(adj UndirectedAdj) CSR {
	g := CSR{Off: make([]int32, len(adj)+1)}
	for v, ns := range adj {
		for _, u := range ns {
			g.Adj = append(g.Adj, int32(u))
		}
		g.Off[v+1] = int32(len(g.Adj))
	}
	return g
}
