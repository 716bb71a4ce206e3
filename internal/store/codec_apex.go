package store

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/tech"
	"repro/internal/wire"
)

// Typed codecs for the three cached value kinds. The encodings are
// deterministic (maps in sorted key order) and exact where exactness
// matters downstream:
//
//   - Analysis round-trips byte-for-byte: the compute view's adjacency
//     order, every pattern graph, embedding rows, occurrence lists, and
//     MIS picks come back in the stored order, so cached analyses feed
//     pattern selection and table rendering identically to fresh ones.
//   - PEVariant stores the merged datapath and the synthesized rule set
//     (the two expensive artifacts) and rebuilds the derived ones on
//     load: the Spec via pe.FromDatapath and the pipelining via
//     pipeline.PipelinePE, both cheap deterministic functions of what is
//     stored. A decoded variant is fully functional — its rules drive
//     instruction selection on cache-miss evaluations exactly like the
//     originals.
//   - Result stores every reported scalar plus the Routed/Degraded
//     provenance. The heavyweight artifacts (Mapped, Balanced, Routing)
//     are deliberately not stored: no table reads them, and consumers
//     that need a mapping (the FIFO-cutoff ablation) recompute it from
//     the variant's rules in microseconds.

// --- ir.Graph ---------------------------------------------------------

func encodeIRGraph(e *wire.Enc, g *ir.Graph) {
	e.Str(g.Name)
	e.Len(len(g.Nodes), g.Nodes == nil)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		e.Byte(byte(n.Op))
		e.Len(len(n.Args), n.Args == nil)
		for _, a := range n.Args {
			e.Int(int(a))
		}
		e.Uvarint(uint64(n.Val))
		e.Str(n.Name)
	}
}

func decodeIRGraph(d *wire.Dec) *ir.Graph {
	g := &ir.Graph{Name: d.Str()}
	n, isNil := d.Len()
	if d.Err() != nil || isNil {
		return g
	}
	g.Nodes = make([]ir.Node, n)
	for i := range g.Nodes {
		node := ir.Node{Op: ir.Op(d.Byte())}
		na, argsNil := d.Len()
		if !argsNil {
			node.Args = make([]ir.NodeRef, na)
			for j := range node.Args {
				node.Args[j] = ir.NodeRef(d.Int())
			}
		}
		node.Val = uint16(d.Uvarint())
		node.Name = d.Str()
		g.Nodes[i] = node
	}
	return g
}

// --- core.Analysis ----------------------------------------------------

// EncodeAnalysis serializes a mined analysis.
func EncodeAnalysis(a *core.Analysis) []byte {
	e := &wire.Enc{}
	e.Buf = a.View.AppendBinary(e.Buf)
	e.Len(len(a.Ranked), a.Ranked == nil)
	for i := range a.Ranked {
		r := &a.Ranked[i]
		e.Buf = r.Pattern.Graph.AppendBinary(e.Buf)
		e.Str(r.Pattern.Code)
		e.Buf = r.Pattern.Embeddings.AppendBinary(e.Buf)
		e.Int(r.Pattern.Support)
		e.Len(len(r.Occurrences), r.Occurrences == nil)
		for _, occ := range r.Occurrences {
			e.Len(len(occ), occ == nil)
			for _, v := range occ {
				e.Int(int(v))
			}
		}
		e.Int(r.MISSize)
		e.Len(len(r.Independent), r.Independent == nil)
		for _, v := range r.Independent {
			e.Int(v)
		}
		e.Bool(r.Exact)
	}
	return e.Buf
}

// DecodeAnalysis is the inverse of EncodeAnalysis.
func DecodeAnalysis(data []byte) (*core.Analysis, error) {
	d := wire.NewDec(data)
	a := &core.Analysis{View: graph.DecodeBinaryGraph(d)}
	n, rankedNil := d.Len()
	if !rankedNil {
		a.Ranked = make([]mis.Ranked, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		r := mis.Ranked{
			Pattern: mining.Pattern{
				Graph: graph.DecodeBinaryGraph(d),
			},
		}
		r.Pattern.Code = d.Str()
		r.Pattern.Embeddings = graph.DecodeBinaryEmbeddingList(d)
		r.Pattern.Support = d.Int()
		no, occsNil := d.Len()
		if !occsNil {
			r.Occurrences = make([]graph.Embedding, no)
			for j := range r.Occurrences {
				k, occNil := d.Len()
				if occNil {
					continue
				}
				occ := make(graph.Embedding, k)
				for p := range occ {
					occ[p] = graph.NodeID(d.Int())
				}
				r.Occurrences[j] = occ
			}
		}
		r.MISSize = d.Int()
		if ni, indNil := d.Len(); !indNil {
			r.Independent = make([]int, ni)
			for j := range r.Independent {
				r.Independent[j] = d.Int()
			}
		}
		r.Exact = d.Bool()
		a.Ranked[i] = r
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode analysis: %w", err)
	}
	return a, nil
}

// --- core.PEVariant ---------------------------------------------------

func encodeDatapath(e *wire.Enc, dp *merge.Datapath) {
	e.Len(len(dp.Units), dp.Units == nil)
	for i := range dp.Units {
		u := &dp.Units[i]
		e.Byte(byte(u.Kind))
		e.Len(len(u.Ops), u.Ops == nil)
		for _, op := range u.Ops {
			e.Byte(byte(op))
		}
		e.Str(u.Class)
		e.Bool(u.Bit)
	}
	e.Len(len(dp.Wires), dp.Wires == nil)
	for _, w := range dp.Wires {
		e.Int(w.From)
		e.Int(w.To)
		e.Int(w.Port)
	}
	e.Len(len(dp.Sources), dp.Sources == nil)
	for _, s := range dp.Sources {
		e.Str(s)
	}
}

func decodeDatapath(d *wire.Dec) *merge.Datapath {
	dp := &merge.Datapath{}
	nu, unitsNil := d.Len()
	if !unitsNil {
		dp.Units = make([]merge.Unit, nu)
	}
	for i := 0; i < nu && d.Err() == nil; i++ {
		u := merge.Unit{Kind: merge.UnitKind(d.Byte())}
		no, opsNil := d.Len()
		if !opsNil {
			u.Ops = make([]ir.Op, no)
			for j := range u.Ops {
				u.Ops[j] = ir.Op(d.Byte())
			}
		}
		u.Class = d.Str()
		u.Bit = d.Bool()
		dp.Units[i] = u
	}
	nw, wiresNil := d.Len()
	if !wiresNil {
		dp.Wires = make([]merge.Wire, nw)
		for i := range dp.Wires {
			w := merge.Wire{From: d.Int(), To: d.Int(), Port: d.Int()}
			// The spec rebuild indexes units by wire endpoint.
			if w.From < 0 || w.From >= nu || w.To < 0 || w.To >= nu {
				d.Fail("datapath wire out of range")
			}
			dp.Wires[i] = w
		}
	}
	ns, sourcesNil := d.Len()
	if !sourcesNil {
		dp.Sources = make([]string, ns)
		for i := range dp.Sources {
			dp.Sources[i] = d.Str()
		}
	}
	return dp
}

// encodeIntMap serializes an int-keyed map in sorted key order, with
// nilness, writing each value with val.
func encodeIntMap[K ~int, V any](e *wire.Enc, m map[K]V, val func(V)) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Len(len(keys), m == nil)
	for _, k := range keys {
		e.Int(int(k))
		val(m[k])
	}
}

func decodeIntMap[K ~int, V any](d *wire.Dec, val func() V) map[K]V {
	n, isNil := d.Len()
	if isNil {
		return nil
	}
	m := make(map[K]V, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := K(d.Int())
		m[k] = val()
	}
	return m
}

func encodeConfig(e *wire.Enc, c pe.Config) {
	// PortSel keyed by [2]int{unit, port}.
	pkeys := make([][2]int, 0, len(c.PortSel))
	for k := range c.PortSel {
		pkeys = append(pkeys, k)
	}
	sort.Slice(pkeys, func(i, j int) bool {
		if pkeys[i][0] != pkeys[j][0] {
			return pkeys[i][0] < pkeys[j][0]
		}
		return pkeys[i][1] < pkeys[j][1]
	})
	e.Len(len(pkeys), c.PortSel == nil)
	for _, k := range pkeys {
		e.Int(k[0])
		e.Int(k[1])
		e.Int(c.PortSel[k])
	}
	encodeIntMap(e, c.OpSel, func(op ir.Op) { e.Byte(byte(op)) })
	encodeIntMap(e, c.ConstVals, func(v uint16) { e.Uvarint(uint64(v)) })
	encodeIntMap(e, c.OutSel, e.Int)
}

func decodeConfig(d *wire.Dec) pe.Config {
	c := pe.Config{}
	if n, isNil := d.Len(); !isNil {
		c.PortSel = make(map[[2]int]int, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			u, p := d.Int(), d.Int()
			c.PortSel[[2]int{u, p}] = d.Int()
		}
	}
	c.OpSel = decodeIntMap[int](d, func() ir.Op { return ir.Op(d.Byte()) })
	c.ConstVals = decodeIntMap[int](d, func() uint16 { return uint16(d.Uvarint()) })
	c.OutSel = decodeIntMap[int](d, d.Int)
	return c
}

func encodeRule(e *wire.Enc, r *rewrite.Rule) {
	e.Str(r.Name)
	encodeIRGraph(e, r.Pattern)
	e.Int(int(r.Root))
	encodeConfig(e, r.Config)
	encodeIntMap(e, r.InputPorts, e.Int)
	encodeIntMap(e, r.BitPorts, e.Int)
	encodeIntMap(e, r.ConstRegs, e.Int)
	encodeIntMap(e, r.LUTUnits, e.Int)
	e.Int(r.OutUnit)
	e.Len(len(r.Ops), r.Ops == nil)
	for _, op := range r.Ops {
		e.Byte(byte(op))
	}
	e.Int(r.Size)
}

func decodeRule(d *wire.Dec, spec *pe.Spec) *rewrite.Rule {
	r := &rewrite.Rule{Name: d.Str(), Spec: spec}
	r.Pattern = decodeIRGraph(d)
	r.Root = ir.NodeRef(d.Int())
	r.Config = decodeConfig(d)
	r.InputPorts = decodeIntMap[ir.NodeRef](d, d.Int)
	r.BitPorts = decodeIntMap[ir.NodeRef](d, d.Int)
	r.ConstRegs = decodeIntMap[ir.NodeRef](d, d.Int)
	r.LUTUnits = decodeIntMap[ir.NodeRef](d, d.Int)
	r.OutUnit = d.Int()
	nops, opsNil := d.Len()
	if !opsNil {
		r.Ops = make([]ir.Op, nops)
		for i := range r.Ops {
			r.Ops[i] = ir.Op(d.Byte())
		}
	}
	r.Size = d.Int()
	return r
}

// EncodeVariant serializes a PE variant: name, baseline flag, merged
// datapath, and the synthesized rule set.
func EncodeVariant(v *core.PEVariant) []byte {
	e := &wire.Enc{}
	e.Str(v.Name)
	e.Bool(v.Baseline)
	encodeDatapath(e, v.Spec.DP)
	e.Len(len(v.Rules.Rules), v.Rules.Rules == nil)
	for _, r := range v.Rules.Rules {
		encodeRule(e, r)
	}
	e.Len(len(v.Rules.Failed), v.Rules.Failed == nil)
	for _, f := range v.Rules.Failed {
		e.Str(f)
	}
	return e.Buf
}

// DecodeVariant is the inverse of EncodeVariant. The Spec is rebuilt
// from the stored datapath and the pipelining from the rebuilt spec
// under the given technology model — both deterministic, so a decoded
// variant is indistinguishable from a freshly generated one.
func DecodeVariant(data []byte, m *tech.Model) (*core.PEVariant, error) {
	d := wire.NewDec(data)
	name := d.Str()
	baseline := d.Bool()
	dp := decodeDatapath(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("store: decode variant: %w", err)
	}
	spec := pe.FromDatapath(name, dp)
	rules := &rewrite.RuleSet{Spec: spec}
	nr, rulesNil := d.Len()
	if !rulesNil {
		rules.Rules = make([]*rewrite.Rule, 0, nr)
	}
	for i := 0; i < nr && d.Err() == nil; i++ {
		rules.Rules = append(rules.Rules, decodeRule(d, spec))
	}
	nf, failedNil := d.Len()
	if !failedNil {
		rules.Failed = make([]string, 0, nf)
	}
	for i := 0; i < nf && d.Err() == nil; i++ {
		rules.Failed = append(rules.Failed, d.Str())
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode variant: %w", err)
	}
	return &core.PEVariant{
		Name:      name,
		Spec:      spec,
		Pipelined: pipeline.PipelinePE(spec, m, pipeline.Options{}),
		Rules:     rules,
		Baseline:  baseline,
	}, nil
}

// --- core.Result ------------------------------------------------------

// EncodeResult serializes the reported scalars of an evaluation result.
// The Mapped/Balanced/Routing artifacts are not stored (see the package
// comment); Routed preserves the ok-vs-estimate provenance the tables
// report.
func EncodeResult(r *core.Result) []byte {
	e := &wire.Enc{}
	e.Str(r.App)
	e.Str(r.Variant)
	e.Int(r.NumPEs)
	e.Int(r.NumMems)
	e.Int(r.NumRFs)
	e.Int(r.NumIOs)
	e.Int(r.NumRegs)
	e.Int(r.RoutingTiles)
	e.Float64(r.PECoreArea)
	e.Float64(r.TotalPEArea)
	e.Float64(r.SBArea)
	e.Float64(r.CBArea)
	e.Float64(r.MemArea)
	e.Float64(r.RFArea)
	e.Float64(r.TotalArea)
	e.Float64(r.PEEnergy)
	e.Float64(r.SBEnergy)
	e.Float64(r.CBEnergy)
	e.Float64(r.MemEnergy)
	e.Float64(r.TotalEnergy)
	e.Int(r.PELatency)
	e.Float64(r.PeriodPS)
	e.Int(r.LatencyCyc)
	e.Float64(r.CyclesPerRun)
	e.Float64(r.RuntimeMS)
	e.Float64(r.PerfPerMM2)
	e.Bool(r.Routed)
	e.Bool(r.Degraded)
	e.Str(r.DegradedReason)
	e.Int(r.PnRAttempts)
	return e.Buf
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult(data []byte) (*core.Result, error) {
	d := wire.NewDec(data)
	r := &core.Result{}
	r.App = d.Str()
	r.Variant = d.Str()
	r.NumPEs = d.Int()
	r.NumMems = d.Int()
	r.NumRFs = d.Int()
	r.NumIOs = d.Int()
	r.NumRegs = d.Int()
	r.RoutingTiles = d.Int()
	r.PECoreArea = d.Float64()
	r.TotalPEArea = d.Float64()
	r.SBArea = d.Float64()
	r.CBArea = d.Float64()
	r.MemArea = d.Float64()
	r.RFArea = d.Float64()
	r.TotalArea = d.Float64()
	r.PEEnergy = d.Float64()
	r.SBEnergy = d.Float64()
	r.CBEnergy = d.Float64()
	r.MemEnergy = d.Float64()
	r.TotalEnergy = d.Float64()
	r.PELatency = d.Int()
	r.PeriodPS = d.Float64()
	r.LatencyCyc = d.Int()
	r.CyclesPerRun = d.Float64()
	r.RuntimeMS = d.Float64()
	r.PerfPerMM2 = d.Float64()
	r.Routed = d.Bool()
	r.Degraded = d.Bool()
	r.DegradedReason = d.Str()
	r.PnRAttempts = d.Int()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode result: %w", err)
	}
	return r, nil
}
