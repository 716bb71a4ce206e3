// Package mis implements the paper's maximal independent set analysis
// (Section 3.2): for each mined pattern, build a graph whose nodes are the
// pattern's occurrences and whose edges connect overlapping occurrences
// (those sharing any application node), then compute a maximal independent
// set. The MIS size is the number of fully-utilized PEs implementing the
// pattern that the application could use, and is the ranking key for
// choosing which subgraphs to merge into a PE.
package mis

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/mining"
	"repro/internal/obs"
)

// Ranked is a pattern with its occurrence-overlap analysis attached.
type Ranked struct {
	Pattern mining.Pattern
	// Occurrences are the distinct occurrences (embeddings deduplicated
	// by target-node set).
	Occurrences []graph.Embedding
	// MISSize is the size of the maximal independent set of the overlap
	// graph: how many occurrences can be accelerated without sharing
	// nodes.
	MISSize int
	// Independent holds the indices (into Occurrences) of the selected
	// independent occurrences.
	Independent []int
	// Exact reports whether MISSize is proven maximum (small overlap
	// graphs are solved exactly; large ones greedily).
	Exact bool
}

// ExactThreshold is the occurrence count up to which the exact
// (branch-and-bound) maximum independent set solver is used; beyond it the
// greedy maximal solver keeps analysis fast. Greedy only under-reports,
// which makes ranking conservative.
const ExactThreshold = 40

// analyzeTraced is Analyze under a per-pattern span.
func analyzeTraced(ctx context.Context, p mining.Pattern) Ranked {
	_, span := obs.StartSpan(ctx, "mis.analyze", obs.Int("embeddings", p.Embeddings.Len()))
	r := Analyze(p)
	span.SetAttrs(obs.Int("occurrences", len(r.Occurrences)), obs.Int("mis", r.MISSize))
	span.End()
	return r
}

// Analyze computes the occurrence-overlap MIS for one pattern.
func Analyze(p mining.Pattern) Ranked {
	occ := dedupeBySet(p.Embeddings)
	adj := overlapGraph(occ)
	var (
		set   []int
		exact bool
	)
	if len(occ) <= ExactThreshold {
		set, exact = graph.MaximumIndependentSet(adj, 0)
	} else {
		set = graph.GreedyMIS(adj)
	}
	return Ranked{
		Pattern:     p,
		Occurrences: occ,
		MISSize:     len(set),
		Independent: set,
		Exact:       exact,
	}
}

// Rank analyzes every pattern and sorts by MIS size descending; ties break
// toward larger patterns (more compute per PE), then canonical code. Each
// pattern's overlap-graph MIS round is traced as a "mis.analyze" span when
// the context carries a tracer.
func Rank(ctx context.Context, patterns []mining.Pattern) []Ranked {
	ranked := make([]Ranked, len(patterns))
	for i, p := range patterns {
		ranked[i] = analyzeTraced(ctx, p)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].MISSize != ranked[j].MISSize {
			return ranked[i].MISSize > ranked[j].MISSize
		}
		si, sj := ranked[i].Pattern.ComputeSize(), ranked[j].Pattern.ComputeSize()
		if si != sj {
			return si > sj
		}
		// Prefer patterns with more resolved leaves (constant operands
		// explicit in the pattern): their rewrite rules bind constants to
		// PE constant registers, so they apply at sites where a generic
		// input-operand variant cannot (the fabric does not route
		// constants).
		ti, tj := ranked[i].Pattern.Size(), ranked[j].Pattern.Size()
		if ti != tj {
			return ti > tj
		}
		return ranked[i].Pattern.Code < ranked[j].Pattern.Code
	})
	return ranked
}

// RankByFrequency analyzes every pattern and orders the result by
// frequency (SortByFrequency) instead of MIS size — the ablation
// baseline for the paper's MIS-guided ranking.
func RankByFrequency(ctx context.Context, patterns []mining.Pattern) []Ranked {
	ranked := make([]Ranked, len(patterns))
	for i, p := range patterns {
		ranked[i] = analyzeTraced(ctx, p)
	}
	SortByFrequency(ranked)
	return ranked
}

// SortByFrequency orders analyzed patterns in place by their number of
// distinct occurrences, most first, ties broken by canonical code. The
// order is total, so it does not depend on the order patterns arrive in:
// re-sorting an MIS ranking gives what RankByFrequency gives.
func SortByFrequency(ranked []Ranked) {
	sort.Slice(ranked, func(i, j int) bool {
		fi, fj := len(ranked[i].Occurrences), len(ranked[j].Occurrences)
		if fi != fj {
			return fi > fj
		}
		return ranked[i].Pattern.Code < ranked[j].Pattern.Code
	})
}

// dedupeBySet collapses embeddings that cover the same target-node set
// (automorphic images of one occurrence). First occurrence wins, in
// list order — downstream pattern selection is order-sensitive.
func dedupeBySet(l *graph.EmbeddingList) []graph.Embedding {
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

// overlapGraph connects occurrences that share at least one target node.
func overlapGraph(occ []graph.Embedding) graph.UndirectedAdj {
	adj := make(graph.UndirectedAdj, len(occ))
	// Index: target node -> occurrences using it.
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
