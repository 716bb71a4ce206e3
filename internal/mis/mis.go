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
	"slices"
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
	g := OverlapGraph(occ)
	var (
		set   []int
		exact bool
	)
	if len(occ) <= ExactThreshold {
		set, exact = graph.MaximumIndependentSet(g, 0)
	} else {
		set = graph.GreedyMIS(g)
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
// list order — downstream pattern selection is order-sensitive. Each
// embedding's sorted node set is hashed into an open-addressed table of
// earlier first occurrences; the kept rows share one backing array.
func dedupeBySet(l *graph.EmbeddingList) []graph.Embedding {
	n, k := l.Len(), l.Positions()
	if n == 0 {
		return nil
	}
	sets := append([]int32(nil), l.Raw()...)
	for e := 0; e < n; e++ {
		slices.Sort(sets[e*k : (e+1)*k])
	}
	set := func(e int32) []int32 { return sets[int(e)*k : int(e+1)*k] }
	size := 1
	for size < 2*n {
		size <<= 1
	}
	table := make([]int32, size) // 1 + first occurrence, 0 = empty
	keep := make([]bool, n)
	kept := 0
	for e := int32(0); int(e) < n; e++ {
		h := uint64(14695981039346656037)
		for _, v := range set(e) {
			h = (h ^ uint64(uint32(v))) * 1099511628211
		}
		for i := h & uint64(size-1); ; i = (i + 1) & uint64(size-1) {
			if table[i] == 0 {
				table[i], keep[e] = e+1, true
				kept++
				break
			}
			if slices.Equal(set(table[i]-1), set(e)) {
				break
			}
		}
	}
	out := make([]graph.Embedding, 0, kept)
	rows := make([]graph.NodeID, kept*k)
	for e := range keep {
		if keep[e] {
			row := rows[len(out)*k : (len(out)+1)*k : (len(out)+1)*k]
			out = append(out, l.Row(e, row))
		}
	}
	return out
}

// OverlapGraph connects occurrences that share at least one target
// node. It indexes each target node's users in CSR form (occurrences
// in ascending order), then emits each occurrence's neighbor row,
// deduplicated with a per-row stamp.
func OverlapGraph(occ []graph.Embedding) graph.CSR {
	nodes := 0
	for _, e := range occ {
		for _, v := range e {
			nodes = max(nodes, int(v)+1)
		}
	}
	userOff := make([]int32, nodes+1)
	for _, e := range occ {
		for _, v := range e {
			userOff[v+1]++
		}
	}
	for v := 0; v < nodes; v++ {
		userOff[v+1] += userOff[v]
	}
	// Fill with userOff[v] as node v's cursor, then shift the cursors
	// (now each node's end) back into starts.
	users := make([]int32, userOff[nodes])
	for i, e := range occ {
		for _, v := range e {
			users[userOff[v]] = int32(i)
			userOff[v]++
		}
	}
	copy(userOff[1:], userOff[:nodes])
	userOff[0] = 0

	// A row holds at most its nodes' user counts summed, so the squared
	// user counts bound the whole adjacency array.
	bound := 0
	for v := 0; v < nodes; v++ {
		u := int(userOff[v+1] - userOff[v])
		bound += u * u
	}
	g := graph.CSR{Off: make([]int32, len(occ)+1), Adj: make([]int32, 0, bound)}
	stamp := make([]int32, len(occ)) // stamp[b] == a+1: b already in row a
	for a, e := range occ {
		for _, v := range e {
			for _, b := range users[userOff[v]:userOff[v+1]] {
				if int(b) != a && stamp[b] != int32(a+1) {
					stamp[b] = int32(a + 1)
					g.Adj = append(g.Adj, b)
				}
			}
		}
		g.Off[a+1] = int32(len(g.Adj))
	}
	return g
}
