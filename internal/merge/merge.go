package merge

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/tech"
)

// cliqueBudget bounds the branch-and-bound steps of each merge's
// maximum-weight clique search; exhausting it yields a valid (possibly
// suboptimal) merge. The largest search of a full suite pass takes a
// few hundred steps.
const cliqueBudget = 2_000_000

// areaUnit is the fixed-point scale of the clique weights, per µm² of
// saved area. Integer weights make sums and ties exact, so the clique
// does not depend on the order the solver adds weights in.
const areaUnit = 1 << 20

// Options configures the merging algorithm.
type Options struct {
	// Tech supplies the area model for merge weights; nil means
	// tech.Default().
	Tech *tech.Model
}

func (o Options) withDefaults() Options {
	if o.Tech == nil {
		o.Tech = tech.Default()
	}
	return o
}

// candKind discriminates merge candidates.
type candKind uint8

const (
	candNode candKind = iota
	candEdge
)

// cand is one potential merging opportunity (a vertex of the
// compatibility graph).
type cand struct {
	kind   candKind
	aN, bN int // node candidate: unit indices
	aW, bW int // edge candidate: wire indices
	// implied node mappings a->b (1 entry for node cands, 2 for edges)
	pairs  [][2]int
	weight float64
}

// Merge merges datapath B into datapath A, returning a new datapath that
// can implement everything A implements and everything B implements, with
// the maximum-weight set of unit/wire sharings applied.
func Merge(a, b *Datapath, opt Options) *Datapath {
	opt = opt.withDefaults()
	cands := candidates(a, b, opt.Tech)
	if len(cands) == 0 {
		return disjointUnion(a, b)
	}
	adj := compatibility(cands)
	weights := make([]int64, len(cands))
	for i, c := range cands {
		weights[i] = int64(math.Round(c.weight * areaUnit))
	}
	// weights is built from cands above (one non-negative area per
	// candidate), so the solver cannot reject it; should it ever fail,
	// merging degrades to the share-nothing union, which is always
	// correct (just larger).
	clique, _, err := graph.MaxWeightClique(adj, weights, cliqueBudget)
	if err != nil {
		return disjointUnion(a, b)
	}
	return reconstruct(a, b, cands, clique)
}

// MergeAll folds Merge over a list of datapaths (first to last).
func MergeAll(dps []*Datapath, opt Options) *Datapath {
	if len(dps) == 0 {
		return &Datapath{}
	}
	acc := dps[0].Clone()
	for _, d := range dps[1:] {
		acc = Merge(acc, d, opt)
	}
	return acc
}

// mergeableUnits reports whether units ua and ub can share hardware, and
// the area saved if they do.
func mergeableUnits(ua, ub *Unit, m *tech.Model) (bool, float64) {
	if ua.Kind != ub.Kind {
		return false, 0
	}
	switch ua.Kind {
	case UnitOp:
		if ua.Class != ub.Class {
			return false, 0
		}
		return true, m.HWClassCost(ua.Class).Area
	case UnitConst:
		if ua.Bit != ub.Bit {
			return false, 0
		}
		if ua.Bit {
			return true, m.Unit("creg1").Area
		}
		return true, m.Unit("creg16").Area
	case UnitInput:
		// Sharing an input saves a connection box in the fabric.
		return true, m.Unit("cb16").Area
	case UnitInputB:
		return true, m.Unit("cb1").Area
	case UnitOutput:
		// Sharing an output saves a switch-box connection.
		return true, m.Unit("sbtrack").Area
	}
	return false, 0
}

// candidates enumerates node and edge merge candidates.
func candidates(a, b *Datapath, m *tech.Model) []cand {
	var cs []cand
	for i := range a.Units {
		for j := range b.Units {
			ok, w := mergeableUnits(&a.Units[i], &b.Units[j], m)
			if !ok {
				continue
			}
			cs = append(cs, cand{
				kind:   candNode,
				aN:     i,
				bN:     j,
				pairs:  [][2]int{{i, j}},
				weight: w,
			})
		}
	}
	muxArea := m.Unit("mux16").Area
	for wi, wa := range a.Wires {
		for wj, wb := range b.Wires {
			if wa.Port != wb.Port {
				continue
			}
			okSrc, _ := mergeableUnits(&a.Units[wa.From], &b.Units[wb.From], m)
			okDst, _ := mergeableUnits(&a.Units[wa.To], &b.Units[wb.To], m)
			if !okSrc || !okDst {
				continue
			}
			cs = append(cs, cand{
				kind:   candEdge,
				aW:     wi,
				bW:     wj,
				pairs:  [][2]int{{wa.From, wb.From}, {wa.To, wb.To}},
				weight: muxArea,
			})
		}
	}
	return cs
}

// compatibility builds the adjacency of the compatibility graph: two
// candidates are compatible when their implied node mappings are mutually
// injective and they do not claim the same wire twice.
func compatibility(cs []cand) graph.UndirectedAdj {
	adj := make(graph.UndirectedAdj, len(cs))
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if compatible(&cs[i], &cs[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

func compatible(x, y *cand) bool {
	// Wire claims must be distinct.
	if x.kind == candEdge && y.kind == candEdge {
		if x.aW == y.aW || x.bW == y.bW {
			return false
		}
	}
	// Node mappings must be consistent: no a-node to two b-nodes, no
	// b-node from two a-nodes.
	for _, p := range x.pairs {
		for _, q := range y.pairs {
			if p[0] == q[0] && p[1] != q[1] {
				return false
			}
			if p[1] == q[1] && p[0] != q[0] {
				return false
			}
		}
	}
	return true
}

// reconstruct applies the selected clique: fuse mapped units, splice in
// the unmapped remainder of B, and union the wire sets (deduplicated, so
// merged edges collapse into one mux input).
func reconstruct(a, b *Datapath, cs []cand, clique []int) *Datapath {
	out := a.Clone()
	out.Sources = append(out.Sources, b.Sources...)

	// Collect the node mapping b->a from every selected candidate.
	bToA := map[int]int{}
	for _, ci := range clique {
		for _, p := range cs[ci].pairs {
			bToA[p[1]] = p[0]
		}
	}
	// Fuse op lists of mapped units.
	for bn, an := range bToA {
		if b.Units[bn].Kind == UnitOp {
			out.Units[an].Ops = dedupOps(append(out.Units[an].Ops, b.Units[bn].Ops...))
		}
	}
	// Splice unmapped B units.
	remap := make([]int, len(b.Units))
	for i := range b.Units {
		if an, ok := bToA[i]; ok {
			remap[i] = an
			continue
		}
		u := b.Units[i]
		u.Ops = append([]ir.Op(nil), u.Ops...)
		remap[i] = out.addUnit(u)
	}
	// Translate B wires, deduplicating against existing wires.
	for _, w := range b.Wires {
		nw := Wire{From: remap[w.From], To: remap[w.To], Port: w.Port}
		if !out.HasWire(nw) {
			out.Wires = append(out.Wires, nw)
		}
	}
	sortWires(out.Wires)
	return out
}

// disjointUnion concatenates two datapaths without sharing.
func disjointUnion(a, b *Datapath) *Datapath {
	out := a.Clone()
	out.Sources = append(out.Sources, b.Sources...)
	off := len(out.Units)
	for _, u := range b.Units {
		u.Ops = append([]ir.Op(nil), u.Ops...)
		out.addUnit(u)
	}
	for _, w := range b.Wires {
		out.Wires = append(out.Wires, Wire{From: w.From + off, To: w.To + off, Port: w.Port})
	}
	sortWires(out.Wires)
	return out
}

// DisjointUnion exposes the no-sharing merge for ablation studies
// (DESIGN.md ablation 2: clique merge vs naive union).
func DisjointUnion(a, b *Datapath) *Datapath { return disjointUnion(a, b) }

func sortWires(ws []Wire) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].To != ws[j].To {
			return ws[i].To < ws[j].To
		}
		if ws[i].Port != ws[j].Port {
			return ws[i].Port < ws[j].Port
		}
		return ws[i].From < ws[j].From
	})
}
