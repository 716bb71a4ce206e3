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

// Typed codecs for the four cached pipeline value kinds. The encodings are
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
//     stored. DecodeVariant decodes the rule set too. DecodeVariantLazy,
//     which the evaluation harness loads with, only checks the rule
//     set's framing at load and builds the rules on first use, since a
//     warm pass serves most cells from stored results and reads few
//     variants' rules. Either way the
//     rules drive instruction selection on cache-miss evaluations
//     exactly like the originals.
//   - Result stores every reported scalar plus the Routed/Degraded
//     provenance. The heavyweight artifacts (Mapped, Balanced, Routing)
//     are deliberately not stored: no table reads them, and consumers
//     that need a mapping (the FIFO-cutoff ablation) recompute it from
//     the variant's rules in microseconds.
//   - Selection stores the canonical codes of a selection's picks, the
//     one part of a selection a table reads (Fig. 10), so a warm pass
//     neither decodes the analysis nor re-runs the greedy set cover.

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

// --- pattern selection -----------------------------------------------

// EncodeSelection serializes the canonical codes of a selection's
// picks, in pick order.
func EncodeSelection(codes []string) []byte {
	e := &wire.Enc{}
	e.Uvarint(uint64(len(codes)))
	for _, c := range codes {
		e.Str(c)
	}
	return e.Buf
}

// DecodeSelection is the inverse of EncodeSelection.
func DecodeSelection(data []byte) ([]string, error) {
	d := wire.NewDec(data)
	codes := make([]string, d.Count())
	for i := range codes {
		codes[i] = d.Str()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode selection: %w", err)
	}
	return codes, nil
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

// ruleReader reads the rule-set tail of a stored variant. With build
// set it returns what it reads; with build unset it makes exactly the
// same reads, so it accepts and rejects exactly the same bytes, and
// allocates nothing. DecodeVariantLazy walks a tail unbuilt at load to
// check its framing and builds it on first use.
type ruleReader struct {
	d     *wire.Dec
	build bool
}

func (r ruleReader) str() string {
	if r.build {
		return r.d.Str()
	}
	r.d.SkipStr()
	return ""
}

func (r ruleReader) ops() []ir.Op {
	n, isNil := r.d.Len()
	var ops []ir.Op
	if r.build && !isNil {
		ops = make([]ir.Op, n)
	}
	for i := 0; i < n; i++ {
		op := ir.Op(r.d.Byte())
		if r.build {
			ops[i] = op
		}
	}
	return ops
}

func (r ruleReader) irGraph() *ir.Graph {
	name := r.str()
	n, isNil := r.d.Len()
	var g *ir.Graph
	if r.build {
		g = &ir.Graph{Name: name}
		if !isNil {
			g.Nodes = make([]ir.Node, n)
		}
	}
	for i := 0; i < n && r.d.Err() == nil; i++ {
		op := ir.Op(r.d.Byte())
		na, argsNil := r.d.Len()
		var args []ir.NodeRef
		if r.build && !argsNil {
			args = make([]ir.NodeRef, na)
		}
		for j := 0; j < na; j++ {
			a := ir.NodeRef(r.d.Int())
			if r.build {
				args[j] = a
			}
		}
		val := uint16(r.d.Uvarint())
		nodeName := r.str()
		if r.build {
			g.Nodes[i] = ir.Node{Op: op, Args: args, Val: val, Name: nodeName}
		}
	}
	return g
}

// readIntMap is the inverse of encodeIntMap, reading each value with
// val; unbuilt, it returns nil.
func readIntMap[K ~int, V any](r ruleReader, val func() V) map[K]V {
	n, isNil := r.d.Len()
	var m map[K]V
	if r.build && !isNil {
		m = make(map[K]V, n)
	}
	for i := 0; i < n && r.d.Err() == nil; i++ {
		k := K(r.d.Int())
		v := val()
		if r.build {
			m[k] = v
		}
	}
	return m
}

func (r ruleReader) config() pe.Config {
	c := pe.Config{}
	n, isNil := r.d.Len()
	if r.build && !isNil {
		c.PortSel = make(map[[2]int]int, n)
	}
	for i := 0; i < n && r.d.Err() == nil; i++ {
		u, p, sel := r.d.Int(), r.d.Int(), r.d.Int()
		if r.build {
			c.PortSel[[2]int{u, p}] = sel
		}
	}
	c.OpSel = readIntMap[int](r, func() ir.Op { return ir.Op(r.d.Byte()) })
	c.ConstVals = readIntMap[int](r, func() uint16 { return uint16(r.d.Uvarint()) })
	c.OutSel = readIntMap[int](r, r.d.Int)
	return c
}

func (r ruleReader) rule(spec *pe.Spec) *rewrite.Rule {
	name := r.str()
	pattern := r.irGraph()
	root := ir.NodeRef(r.d.Int())
	config := r.config()
	inputs := readIntMap[ir.NodeRef](r, r.d.Int)
	bits := readIntMap[ir.NodeRef](r, r.d.Int)
	consts := readIntMap[ir.NodeRef](r, r.d.Int)
	luts := readIntMap[ir.NodeRef](r, r.d.Int)
	out := r.d.Int()
	ops := r.ops()
	size := r.d.Int()
	if !r.build {
		return nil
	}
	return &rewrite.Rule{
		Name: name, Spec: spec, Pattern: pattern, Root: root, Config: config,
		InputPorts: inputs, BitPorts: bits, ConstRegs: consts, LUTUnits: luts,
		OutUnit: out, Ops: ops, Size: size,
	}
}

// ruleSet reads the tail EncodeVariant writes after the datapath: the
// rules, then the names of the patterns the PE could not implement.
func (r ruleReader) ruleSet(spec *pe.Spec) *rewrite.RuleSet {
	nr, rulesNil := r.d.Len()
	var rs *rewrite.RuleSet
	if r.build {
		rs = &rewrite.RuleSet{Spec: spec}
		if !rulesNil {
			rs.Rules = make([]*rewrite.Rule, 0, nr)
		}
	}
	for i := 0; i < nr && r.d.Err() == nil; i++ {
		rule := r.rule(spec)
		if r.build {
			rs.Rules = append(rs.Rules, rule)
		}
	}
	nf, failedNil := r.d.Len()
	if r.build && !failedNil {
		rs.Failed = make([]string, 0, nf)
	}
	for i := 0; i < nf && r.d.Err() == nil; i++ {
		f := r.str()
		if r.build {
			rs.Failed = append(rs.Failed, f)
		}
	}
	return rs
}

// EncodeVariant serializes a PE variant: name, baseline flag, merged
// datapath, and the synthesized rule set.
func EncodeVariant(v *core.PEVariant) []byte {
	e := &wire.Enc{}
	e.Str(v.Name)
	e.Bool(v.Baseline)
	encodeDatapath(e, v.Spec.DP)
	rules := v.RuleSet()
	e.Len(len(rules.Rules), rules.Rules == nil)
	for _, r := range rules.Rules {
		encodeRule(e, r)
	}
	e.Len(len(rules.Failed), rules.Failed == nil)
	for _, f := range rules.Failed {
		e.Str(f)
	}
	return e.Buf
}

// decodeVariantHead reads a stored variant's name, baseline flag and
// datapath, and rebuilds its spec from the datapath.
func decodeVariantHead(d *wire.Dec) (name string, baseline bool, spec *pe.Spec, err error) {
	name = d.Str()
	baseline = d.Bool()
	dp := decodeDatapath(d)
	if err := d.Err(); err != nil {
		return "", false, nil, fmt.Errorf("store: decode variant: %w", err)
	}
	return name, baseline, pe.FromDatapath(name, dp), nil
}

// DecodeVariant is the inverse of EncodeVariant. The Spec is rebuilt
// from the stored datapath and the pipelining from the rebuilt spec
// under the given technology model — both deterministic, so a decoded
// variant is indistinguishable from a freshly generated one.
func DecodeVariant(data []byte, m *tech.Model) (*core.PEVariant, error) {
	d := wire.NewDec(data)
	name, baseline, spec, err := decodeVariantHead(d)
	if err != nil {
		return nil, err
	}
	rules := ruleReader{d: d, build: true}.ruleSet(spec)
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

// DecodeVariantLazy accepts exactly the payloads DecodeVariant accepts
// and returns the same variant, except that it only checks the framing
// of the rule set at load and builds the rules on the variant's first
// RuleSet call (core.NewLazyVariant), calling built, when not nil,
// just before. A warm evaluation pass reads the rules of few of the
// variants it loads: the rest are served results keyed by name.
func DecodeVariantLazy(data []byte, m *tech.Model, built func()) (*core.PEVariant, error) {
	d := wire.NewDec(data)
	name, baseline, spec, err := decodeVariantHead(d)
	if err != nil {
		return nil, err
	}
	tail := d.Rest()
	ruleReader{d: d}.ruleSet(spec)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("store: decode variant: %w", err)
	}
	pp := pipeline.PipelinePE(spec, m, pipeline.Options{})
	return core.NewLazyVariant(name, spec, pp, baseline, func() *rewrite.RuleSet {
		if built != nil {
			built()
		}
		// The walk accepted the tail, and a build makes the same reads.
		return ruleReader{d: wire.NewDec(tail), build: true}.ruleSet(spec)
	}), nil
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
