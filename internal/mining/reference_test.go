package mining

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// MineReference is the frozen serial reference miner: the pre-SoA
// implementation, kept verbatim (modulo the Pattern conversion at the
// end) as the semantic oracle for Mine. The equivalence suite pins
// Mine's output — patterns, canonical codes, supports, and embedding
// lists, in order — byte-identically to this function at every worker
// count, so it must never be "improved". It carries no observability
// instrumentation and cannot be canceled; it exists for tests and
// benchmarks only.
func MineReference(_ context.Context, target *graph.Graph, opt Options) []Pattern {
	opt = opt.withDefaults()

	frontier := refSeedPatterns(target, opt)
	seen := make(map[string]bool)
	var results []refPattern

	for len(frontier) > 0 {
		var next []refPattern
		for _, p := range frontier {
			if p.Support >= opt.MinSupport && refComputeSize(p.Graph) >= minComputeNodes {
				results = append(results, p)
			}
			if p.Graph.NumNodes() >= opt.MaxNodes {
				continue
			}
			for _, cand := range refExtensions(p, target) {
				if seen[cand.code] {
					continue
				}
				seen[cand.code] = true
				emb := graph.FindEmbeddings(cand.pattern, target, graph.EmbedOptions{Limit: opt.MaxEmbeddings})
				sup := refMNISupport(cand.pattern, emb)
				if sup < opt.MinSupport {
					continue
				}
				next = append(next, refPattern{
					Graph:      cand.pattern,
					Code:       cand.code,
					Embeddings: emb,
					Support:    sup,
				})
			}
		}
		frontier = next
	}

	sort.Slice(results, func(i, j int) bool {
		if results[i].Support != results[j].Support {
			return results[i].Support > results[j].Support
		}
		if results[i].Graph.NumNodes() != results[j].Graph.NumNodes() {
			return results[i].Graph.NumNodes() > results[j].Graph.NumNodes()
		}
		return results[i].Code < results[j].Code
	})

	out := make([]Pattern, len(results))
	for i, p := range results {
		out[i] = Pattern{
			Graph:      p.Graph,
			Code:       p.Code,
			Embeddings: graph.EmbeddingListFromRows(p.Graph.NumNodes(), p.Embeddings),
			Support:    p.Support,
		}
	}
	return out
}

// refPattern is the reference miner's internal pattern shape: embeddings
// as a row-major slice, exactly as the historical implementation held
// them.
type refPattern struct {
	Graph      *graph.Graph
	Code       string
	Embeddings []graph.Embedding
	Support    int
}

// refComputeSize counts compute-op nodes (constants excluded).
func refComputeSize(g *graph.Graph) int {
	p := Pattern{Graph: g}
	return p.ComputeSize()
}

// refSeedPatterns builds all frequent single-edge patterns.
func refSeedPatterns(target *graph.Graph, opt Options) []refPattern {
	type edgeKind struct {
		from, to string
		port     int
	}
	kinds := make(map[edgeKind]bool)
	for _, e := range target.Edges() {
		kinds[edgeKind{target.Label(e.From), target.Label(e.To), e.Port}] = true
	}
	var keys []edgeKind
	for k := range kinds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.port < b.port
	})
	var seeds []refPattern
	for _, k := range keys {
		p := graph.New()
		f := p.AddNode(k.from)
		t := p.AddNode(k.to)
		p.AddEdge(f, t, k.port)
		emb := graph.FindEmbeddings(p, target, graph.EmbedOptions{Limit: opt.MaxEmbeddings})
		sup := refMNISupport(p, emb)
		if sup < opt.MinSupport {
			continue
		}
		seeds = append(seeds, refPattern{
			Graph:      p,
			Code:       refCanonicalCode(p),
			Embeddings: emb,
			Support:    sup,
		})
	}
	return seeds
}

// refExtensions generates the one-edge extensions of p witnessed by at
// least one embedding, deduplicated per parent by extension key and then
// by canonical code. Candidate order — embeddings, then positions, then
// outgoing before incoming target edges in adjacency order — is part of
// the frozen contract: it decides which concrete graph represents a
// canonical code and, through the global dedup filter, which parent a
// pattern is first discovered from.
func refExtensions(p refPattern, target *graph.Graph) []candidate {
	type extKey struct {
		srcIn      bool // is the pattern-side endpoint the edge source?
		pnode      graph.NodeID
		otherLabel string
		otherPNode graph.NodeID // >=0 when the other endpoint is also in the pattern
		port       int
	}
	seen := make(map[extKey]bool)
	var cands []candidate
	codeSeen := make(map[string]bool)

	for _, emb := range p.Embeddings {
		rev := make(map[graph.NodeID]graph.NodeID, len(emb))
		for pi, tv := range emb {
			rev[tv] = graph.NodeID(pi)
		}
		for pi, tv := range emb {
			pn := graph.NodeID(pi)
			for _, te := range target.Out(tv) {
				otherP, inImage := rev[te.To]
				if inImage && p.Graph.HasEdge(pn, otherP, te.Port) {
					continue // edge already in the pattern
				}
				k := extKey{srcIn: true, pnode: pn, otherLabel: target.Label(te.To), port: te.Port}
				if inImage {
					k.otherPNode = otherP
				} else {
					k.otherPNode = -1
				}
				if seen[k] {
					continue
				}
				seen[k] = true
				np := p.Graph.Clone()
				dst := k.otherPNode
				if dst < 0 {
					dst = np.AddNode(k.otherLabel)
				}
				np.AddEdge(pn, dst, te.Port)
				code := refCanonicalCode(np)
				if !codeSeen[code] {
					codeSeen[code] = true
					cands = append(cands, candidate{np, code})
				}
			}
			for _, te := range target.In(tv) {
				otherP, inImage := rev[te.From]
				if inImage && p.Graph.HasEdge(otherP, pn, te.Port) {
					continue
				}
				k := extKey{srcIn: false, pnode: pn, otherLabel: target.Label(te.From), port: te.Port}
				if inImage {
					k.otherPNode = otherP
				} else {
					k.otherPNode = -1
				}
				if seen[k] {
					continue
				}
				seen[k] = true
				np := p.Graph.Clone()
				src := k.otherPNode
				if src < 0 {
					src = np.AddNode(k.otherLabel)
				}
				np.AddEdge(src, pn, te.Port)
				code := refCanonicalCode(np)
				if !codeSeen[code] {
					codeSeen[code] = true
					cands = append(cands, candidate{np, code})
				}
			}
		}
	}
	return cands
}

// refMNISupport computes GRAMI's minimum node image support with the
// historical per-position hash sets.
func refMNISupport(p *graph.Graph, embs []graph.Embedding) int {
	if len(embs) == 0 {
		return 0
	}
	n := p.NumNodes()
	images := make([]map[graph.NodeID]bool, n)
	for i := range images {
		images[i] = make(map[graph.NodeID]bool)
	}
	for _, e := range embs {
		for i, tv := range e {
			images[i][tv] = true
		}
	}
	minImg := len(embs)
	for _, img := range images {
		if len(img) < minImg {
			minImg = len(img)
		}
	}
	return minImg
}

// refCanonicalCode is the seed's CanonicalCode, frozen verbatim alongside
// the reference miner so MineReference represents the pre-SoA
// implementation end to end — including its canonicalization costs. It
// must emit exactly the same bytes as graph.CanonicalCode; the graph
// package's legacy differential test pins the two together.
func refCanonicalCode(g *graph.Graph) string {
	n := g.NumNodes()
	if n == 0 {
		return "∅"
	}
	inv := make([]string, n)
	for v := 0; v < n; v++ {
		inv[v] = fmt.Sprintf("%s/%d/%d", g.Label(graph.NodeID(v)), g.InDegree(graph.NodeID(v)), g.OutDegree(graph.NodeID(v)))
	}
	for iter := 0; iter < n; iter++ {
		next := make([]string, n)
		changed := false
		for v := 0; v < n; v++ {
			var outs, ins []string
			for _, e := range g.Out(graph.NodeID(v)) {
				outs = append(outs, fmt.Sprintf("%d>%s", e.Port, inv[e.To]))
			}
			for _, e := range g.In(graph.NodeID(v)) {
				ins = append(ins, fmt.Sprintf("%d<%s", e.Port, inv[e.From]))
			}
			sort.Strings(outs)
			sort.Strings(ins)
			next[v] = inv[v] + "{" + strings.Join(outs, ",") + "|" + strings.Join(ins, ",") + "}"
			if next[v] != inv[v] {
				changed = true
			}
		}
		classes := make(map[string]int)
		for _, s := range next {
			if _, ok := classes[s]; !ok {
				classes[s] = 0
			}
		}
		keys := make([]string, 0, len(classes))
		for k := range classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			classes[k] = i
		}
		base := make([]string, n)
		for v := 0; v < n; v++ {
			base[v] = fmt.Sprintf("%s·c%d", g.Label(graph.NodeID(v)), classes[next[v]])
		}
		if !changed {
			break
		}
		inv = base
	}

	type cand struct {
		v   graph.NodeID
		inv string
	}
	cands := make([]cand, n)
	for v := 0; v < n; v++ {
		cands[v] = cand{graph.NodeID(v), inv[v]}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].inv != cands[b].inv {
			return cands[a].inv < cands[b].inv
		}
		return cands[a].v < cands[b].v
	})

	best := ""
	perm := make([]graph.NodeID, 0, n)
	used := make([]bool, n)
	var rec func()
	steps := 0
	rec = func() {
		steps++
		if steps > 200_000 {
			return
		}
		if len(perm) == n {
			code := refEncodeWithOrder(g, perm)
			if best == "" || code < best {
				best = code
			}
			return
		}
		var classInv string
		for _, c := range cands {
			if !used[c.v] {
				classInv = c.inv
				break
			}
		}
		for _, c := range cands {
			if used[c.v] || c.inv != classInv {
				continue
			}
			used[c.v] = true
			perm = append(perm, c.v)
			rec()
			perm = perm[:len(perm)-1]
			used[c.v] = false
		}
	}
	rec()
	if best == "" {
		all := make([]string, n)
		for v := 0; v < n; v++ {
			all[v] = inv[v]
		}
		sort.Strings(all)
		return "~" + strings.Join(all, ";")
	}
	return best
}

func refEncodeWithOrder(g *graph.Graph, order []graph.NodeID) string {
	rank := make(map[graph.NodeID]int, len(order))
	for i, v := range order {
		rank[v] = i
	}
	var b strings.Builder
	for i, v := range order {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(g.Label(v))
	}
	type triple struct{ f, t, p int }
	var es []triple
	for _, e := range g.Edges() {
		es = append(es, triple{rank[e.From], rank[e.To], e.Port})
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].f != es[b].f {
			return es[a].f < es[b].f
		}
		if es[a].t != es[b].t {
			return es[a].t < es[b].t
		}
		return es[a].p < es[b].p
	})
	b.WriteByte('#')
	for i, e := range es {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d,%d,%d", e.f, e.t, e.p)
	}
	return b.String()
}
