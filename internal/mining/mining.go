// Package mining implements frequent subgraph mining on a single large
// labeled graph — the role GRAMI plays in the APEX paper (Section 3.1).
//
// The miner grows patterns one edge at a time from frequent single-edge
// seeds (gSpan-style pattern extension adapted to directed ported graphs),
// deduplicates candidates by canonical code, and measures frequency with
// the MNI (minimum node image) support GRAMI uses: the minimum, over
// pattern positions, of the number of distinct target nodes that appear in
// that position across all embeddings. MNI is anti-monotone, so pruning
// extensions of infrequent patterns is sound.
//
// Mine runs each gSpan round in two data-parallel phases with a serial
// deterministic merge between them, so its output is byte-identical to
// the frozen serial reference miner (reference_test.go) at every worker
// count (see DESIGN.md §11 for the architecture and the argument).
package mining

import (
	"context"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Pattern is a mined frequent subgraph together with its occurrences.
// Embeddings is a column-major struct-of-arrays list; use Rows or At to
// read individual embeddings.
type Pattern struct {
	Graph      *graph.Graph
	Code       string               // canonical code (dedup key)
	Embeddings *graph.EmbeddingList // embeddings into the mined view
	Support    int                  // MNI support
}

// Size returns the number of nodes in the pattern.
func (p *Pattern) Size() int { return p.Graph.NumNodes() }

// ComputeSize returns the number of compute-op nodes in the pattern
// (constants excluded).
func (p *Pattern) ComputeSize() int {
	n := 0
	for v := 0; v < p.Graph.NumNodes(); v++ {
		if op := ir.OpByName(p.Graph.Label(graph.NodeID(v))); op.IsCompute() {
			n++
		}
	}
	return n
}

// minComputeNodes is the fewest compute nodes a reported pattern may
// have: a single operation is not an interesting PE candidate (the
// baseline already has it).
const minComputeNodes = 2

// Options configures the miner.
type Options struct {
	// MinSupport is the minimum MNI support for a pattern to be frequent.
	MinSupport int
	// MaxNodes caps pattern size; 0 means the default of 8 (the paper's
	// merged PEs are built from small subgraphs, cf. Fig. 10).
	MaxNodes int
	// MaxEmbeddings caps per-pattern embedding enumeration; 0 means the
	// default of 20000. Hitting the cap under-counts support, which only
	// makes the miner more conservative.
	MaxEmbeddings int
	// Workers is the number of goroutines used for candidate generation
	// and support counting. 0 and 1 both mean fully serial (no goroutines
	// are spawned). The mined output is byte-identical at every worker
	// count; see the equivalence suite.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 2
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 8
	}
	if o.MaxEmbeddings <= 0 {
		o.MaxEmbeddings = 20000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Mine returns the frequent subgraphs of target, sorted by support
// descending then size descending (larger first among equals), then
// canonical code for determinism. Each growth pass (one pattern-size
// round of the gSpan-style frontier) is traced as a "mine.pass" span
// when the context carries a tracer; spans and mine.* metrics are
// recorded only at serial points, so they are worker-count invariant.
//
// The only possible error is cancellation: when ctx is canceled or past
// its deadline, Mine stops between work items and returns an
// fault.ErrCanceled-classified error with no patterns.
func Mine(ctx context.Context, target *graph.Graph, opt Options) ([]Pattern, error) {
	opt = opt.withDefaults()
	m := newMiner(target, opt)

	_, seedSpan := obs.StartSpan(ctx, "mine.seed")
	frontier, err := m.seeds(ctx)
	seedSpan.SetAttrs(obs.Int("seeds", len(frontier)))
	seedSpan.End()
	if err != nil {
		return nil, err
	}

	seen := newCodeSet()
	var results []Pattern
	var rounds, candidates, dedupHits, embeddings int64

	for round := 1; len(frontier) > 0; round++ {
		rounds++
		if err := fault.Canceled(ctx); err != nil {
			return nil, err
		}
		_, passSpan := obs.StartSpan(ctx, "mine.pass",
			obs.Int("round", round), obs.Int("frontier", len(frontier)))
		obs.Observe(ctx, "mine.frontier", int64(len(frontier)))

		// Collect this round's frequent patterns. The reference interleaves
		// collection with extension, but collection only ever appends the
		// parent itself, so collecting first preserves the result order.
		for i := range frontier {
			p := &frontier[i]
			if p.Support >= opt.MinSupport && p.ComputeSize() >= minComputeNodes {
				results = append(results, *p)
			}
		}

		// Phase A (parallel over parents): generate extension candidates.
		// Each parent's list is computed independently with per-parent
		// dedup only; the code-set shards are read as a stale-but-frozen
		// prefilter (inserts happen only in the serial merge below).
		perParent := make([][]candidate, len(frontier))
		err := m.forEach(ctx, len(frontier), func(w *mineWorker, i int) {
			p := &frontier[i]
			if p.Size() >= opt.MaxNodes {
				return
			}
			perParent[i] = w.ext.extend(p, seen)
		})
		if err != nil {
			passSpan.End()
			return nil, err
		}

		// Serial deterministic merge: global canonical-code dedup in
		// parent order, candidate order — exactly the order the serial
		// reference consults its seen set in. Candidates are marked seen
		// whether or not they turn out frequent.
		var cands []candidate
		for _, list := range perParent {
			for _, c := range list {
				if !seen.add(c.code) {
					dedupHits++
					continue
				}
				cands = append(cands, c)
			}
		}
		candidates += int64(len(cands))

		// Phase B (parallel over candidates): enumerate embeddings and
		// count MNI support, results landing by index.
		evald := make([]Pattern, len(cands))
		err = m.forEach(ctx, len(cands), func(w *mineWorker, j int) {
			emb := w.matcher.Find(cands[j].pattern, opt.MaxEmbeddings)
			evald[j] = Pattern{
				Graph:      cands[j].pattern,
				Code:       cands[j].code,
				Embeddings: emb,
				Support:    w.mni(emb),
			}
		})
		if err != nil {
			passSpan.End()
			return nil, err
		}

		frontier = frontier[:0]
		for i := range evald {
			embeddings += int64(evald[i].Embeddings.Len())
			if evald[i].Support >= opt.MinSupport {
				frontier = append(frontier, evald[i])
			}
		}
		passSpan.End()
	}
	obs.Add(ctx, "mine.patterns", int64(len(results)))
	obs.Add(ctx, "mine.rounds", rounds)
	obs.Add(ctx, "mine.candidates", candidates)
	obs.Add(ctx, "mine.dedup.hits", dedupHits)
	obs.Add(ctx, "mine.embeddings", embeddings)

	sort.Slice(results, func(i, j int) bool {
		if results[i].Support != results[j].Support {
			return results[i].Support > results[j].Support
		}
		if results[i].Size() != results[j].Size() {
			return results[i].Size() > results[j].Size()
		}
		return results[i].Code < results[j].Code
	})
	return results, nil
}

// miner holds the per-run state shared across rounds: one worker scratch
// set per goroutine plus the scheduling knobs.
type miner struct {
	target  *graph.Graph
	opt     Options
	workers int
	ws      []*mineWorker
}

func newMiner(target *graph.Graph, opt Options) *miner {
	m := &miner{target: target, opt: opt, workers: opt.Workers}
	m.ws = make([]*mineWorker, m.workers)
	for i := range m.ws {
		m.ws[i] = newMineWorker(target)
	}
	return m
}

// mineWorker is one goroutine's scratch: a reusable SoA matcher, the
// zero-alloc extension scanner, and an epoch-stamped distinct-counting
// array for MNI support. Never shared between goroutines.
type mineWorker struct {
	matcher *graph.Matcher
	ext     extender
	stamp   []int64
	epoch   int64
}

func newMineWorker(target *graph.Graph) *mineWorker {
	w := &mineWorker{
		matcher: graph.NewMatcher(target),
		stamp:   make([]int64, target.NumNodes()),
	}
	w.ext.init(w.matcher)
	return w
}

// mni computes GRAMI's minimum node image support over an SoA embedding
// list: per pattern position, count distinct target nodes in that column
// with an epoch-stamped array instead of a hash set. Zero allocations.
func (w *mineWorker) mni(l *graph.EmbeddingList) int {
	if l.Len() == 0 {
		return 0
	}
	minImg := l.Len()
	raw, k := l.Raw(), l.Positions()
	for pos := 0; pos < k; pos++ {
		w.epoch++
		cnt := 0
		for i := pos; i < len(raw); i += k {
			if tv := raw[i]; w.stamp[tv] != w.epoch {
				w.stamp[tv] = w.epoch
				cnt++
			}
		}
		if cnt < minImg {
			minImg = cnt
		}
	}
	return minImg
}

// forEach runs fn over indices [0, n) using the miner's worker pool.
// With one worker (or one item) everything runs on the calling
// goroutine. Workers claim indices from a shared atomic cursor and poll
// the context between items — a plain ctx.Err() read, no randomized
// backoff — so cancellation is detected promptly and deterministically.
// fn receives this goroutine's private scratch. Returns the
// cancellation error if the context died, after all workers stopped.
func (m *miner) forEach(ctx context.Context, n int, fn func(w *mineWorker, i int)) error {
	if m.workers <= 1 || n <= 1 {
		w := m.ws[0]
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return fault.Canceled(ctx)
			}
			fn(w, i)
		}
		return nil
	}
	k := m.workers
	if k > n {
		k = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < k; wi++ {
		wg.Add(1)
		go func(w *mineWorker) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(m.ws[wi])
	}
	wg.Wait()
	if ctx.Err() != nil {
		return fault.Canceled(ctx)
	}
	return nil
}

// seeds builds all frequent single-edge patterns: the same edge-kind
// enumeration and (from, to, port) ordering as the reference, with the
// per-seed embedding enumeration and support counting fanned out across
// the workers and re-filtered serially in seed order.
func (m *miner) seeds(ctx context.Context) ([]Pattern, error) {
	type edgeKind struct {
		from, to string
		port     int
	}
	kinds := make(map[edgeKind]bool)
	for _, e := range m.target.Edges() {
		kinds[edgeKind{m.target.Label(e.From), m.target.Label(e.To), e.Port}] = true
	}
	keys := make([]edgeKind, 0, len(kinds))
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
	graphs := make([]*graph.Graph, len(keys))
	for i, k := range keys {
		p := graph.New()
		f := p.AddNode(k.from)
		t := p.AddNode(k.to)
		p.AddEdge(f, t, k.port)
		graphs[i] = p
	}
	evald := make([]Pattern, len(graphs))
	err := m.forEach(ctx, len(graphs), func(w *mineWorker, i int) {
		emb := w.matcher.Find(graphs[i], m.opt.MaxEmbeddings)
		evald[i] = Pattern{
			Graph:      graphs[i],
			Code:       w.ext.canon.Code(graphs[i]),
			Embeddings: emb,
			Support:    w.mni(emb),
		}
	})
	if err != nil {
		return nil, err
	}
	var seeds []Pattern
	for i := range evald {
		if evald[i].Support >= m.opt.MinSupport {
			seeds = append(seeds, evald[i])
		}
	}
	return seeds, nil
}

// codeSet is the canonical-code dedup set, sharded by code hash. Reads
// (has) are lock-free and may come from any phase-A worker; writes (add)
// happen only from the serial merge between phases, so there is never a
// concurrent read/write pair on a shard. The shard count only bounds
// per-map growth; membership semantics are those of one flat set.
type codeSet struct {
	seed   maphash.Seed
	shards [codeShards]map[string]struct{}
}

const codeShards = 16

func newCodeSet() *codeSet {
	s := &codeSet{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i] = make(map[string]struct{})
	}
	return s
}

func (s *codeSet) shard(code string) map[string]struct{} {
	return s.shards[maphash.String(s.seed, code)&(codeShards-1)]
}

// has reports membership; safe to call concurrently with other has
// calls (but not with add).
func (s *codeSet) has(code string) bool {
	_, ok := s.shard(code)[code]
	return ok
}

// add inserts code, reporting whether it was absent. Serial phases only.
func (s *codeSet) add(code string) bool {
	sh := s.shard(code)
	if _, ok := sh[code]; ok {
		return false
	}
	sh[code] = struct{}{}
	return true
}

// ComputeView extracts the minable subgraph of an application graph: the
// subgraph induced by compute nodes and the constants feeding them. The
// returned mapping relates view node IDs back to IR node refs.
func ComputeView(g *ir.Graph) (*graph.Graph, map[graph.NodeID]ir.NodeRef) {
	lg, _ := g.ToLabeled()
	var keep []graph.NodeID
	for i, n := range g.Nodes {
		if n.Op.IsCompute() || n.Op == ir.OpConst || n.Op == ir.OpConstB {
			keep = append(keep, graph.NodeID(i))
		}
	}
	view, remap := lg.InducedSubgraph(keep)
	back := make(map[graph.NodeID]ir.NodeRef, len(keep))
	for _, old := range keep {
		back[remap[old]] = ir.NodeRef(old)
	}
	return view, back
}
