// Package apps constructs the benchmark application dataflow graphs used
// to evaluate APEX. It substitutes for the paper's Halide frontend and
// Halide-to-CoreIR lowering: each generator builds the same kind of
// word-level dataflow graph that lowering produces — compute nodes,
// constant-weight leaves, line-buffer (memory) nodes for stencil windows,
// and stream I/O — with operator mixes and footprints matching what the
// paper reports (e.g. camera pipeline: ~90 primitive operations per output
// pixel, all baseline ops except left shift and bitwise logic, unrolled
// 4x; Table 3 memory-tile and I/O counts).
//
// Each application is built once per process, on first use, and every
// constructor, ByName, All, AnalyzedIP, AnalyzedML and UnseenIP return
// that same *App afterwards. Apps and their graphs are therefore shared
// read-only values: callers must not modify them (optimize, map or
// encode a graph by reading it; Clone one to change it).
package apps

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Domain classifies an application.
type Domain string

const (
	ImageProcessing Domain = "IP"
	MachineLearning Domain = "ML"
)

// App bundles an application graph with its workload metadata.
type App struct {
	Name        string
	Domain      Domain
	Description string
	Graph       *ir.Graph

	// Unroll is how many outputs one CGRA invocation produces in parallel
	// (the paper computes 4 output pixels in parallel for camera).
	Unroll int
	// TotalOutputs is the number of outputs in a full run (e.g. pixels in
	// a 1920x1080 frame) used for runtime/energy roll-ups.
	TotalOutputs int
	// Seen marks applications analyzed during PE generation; the three
	// Fig. 13 applications are unseen (Seen=false).
	Seen bool
}

// ComputeOps returns the number of minable compute nodes in the graph.
func (a *App) ComputeOps() int { return a.Graph.ComputeNodeCount() }

// MemNodes returns the number of memory (line-buffer) nodes.
func (a *App) MemNodes() int { return a.Graph.CountOps()[ir.OpMem] }

// IONodes returns the number of stream inputs plus outputs.
func (a *App) IONodes() int {
	c := a.Graph.CountOps()
	return c[ir.OpInput] + c[ir.OpInputB] + c[ir.OpOutput]
}

// UsedOps returns the sorted set of compute ops the application uses.
func (a *App) UsedOps() []ir.Op {
	set := map[ir.Op]bool{}
	for _, n := range a.Graph.Nodes {
		if n.Op.IsCompute() {
			set[n.Op] = true
		}
	}
	ops := make([]ir.Op, 0, len(set))
	for op := range set {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// registry maps each application name to its shared constructor.
var registry = map[string]func() *App{
	"camera":    Camera,
	"harris":    Harris,
	"gaussian":  Gaussian,
	"unsharp":   Unsharp,
	"resnet":    ResNet,
	"mobilenet": MobileNet,
	"laplacian": Laplacian,
	"stereo":    Stereo,
	"fast":      FASTCorner,
}

// ByName returns the named (shared) application; it returns an error for
// unknown names.
func ByName(name string) (*App, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q", name)
	}
	return b(), nil
}

// Names lists all application names in sorted order.
func Names() []string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// AnalyzedIP returns the four image-processing applications used for PE
// generation (paper Table 1).
func AnalyzedIP() []*App {
	return []*App{Camera(), Harris(), Gaussian(), Unsharp()}
}

// AnalyzedML returns the two machine-learning applications (Table 1).
func AnalyzedML() []*App { return []*App{ResNet(), MobileNet()} }

// UnseenIP returns the three applications not analyzed during PE
// generation, used in the paper's Fig. 13 generalization experiment.
func UnseenIP() []*App { return []*App{Laplacian(), Stereo(), FASTCorner()} }

// All returns every application.
func All() []*App {
	var all []*App
	for _, n := range Names() {
		a, _ := ByName(n)
		all = append(all, a)
	}
	return all
}

const fullHD = 1920 * 1080

// ---------------------------------------------------------------------------
// Shared construction helpers
// ---------------------------------------------------------------------------

// tapBank produces stencil-window taps backed by a stream input and a
// chain of line-buffer (memory) nodes, the way Halide lowering materializes
// windows: each additional tap that needs an older value reads one more
// memory element down the chain.
type tapBank struct {
	g     *ir.Graph
	taps  []ir.NodeRef
	chain ir.NodeRef
}

// newTapBank creates a stream input followed by a chain of n memory nodes;
// tap(i) returns the value delayed by i elements (tap 0 is the live
// input). n+1 taps are available.
func newTapBank(g *ir.Graph, name string, n int) *tapBank {
	tb := &tapBank{g: g}
	in := g.Input(name)
	tb.taps = append(tb.taps, in)
	cur := in
	for i := 0; i < n; i++ {
		cur = g.Mem(cur)
		tb.taps = append(tb.taps, cur)
	}
	tb.chain = cur
	return tb
}

func (tb *tapBank) tap(i int) ir.NodeRef { return tb.taps[i] }
func (tb *tapBank) size() int            { return len(tb.taps) }

// macTree multiplies each tap by the corresponding constant weight and
// accumulates with a left-leaning add chain — exactly the shape the
// paper's Fig. 3 convolution has, so its frequent subgraphs (mul->add,
// add->add, const->mul->add) appear naturally.
func macTree(g *ir.Graph, taps []ir.NodeRef, weights []uint16) ir.NodeRef {
	if len(taps) == 0 {
		g.Failf("apps: macTree: no taps")
		return g.Const(0)
	}
	if len(taps) != len(weights) {
		// Record the misuse on the graph and build from the common prefix so
		// construction stays total; Validate/Eval surface the sticky error.
		g.Failf("apps: macTree: %d taps but %d weights", len(taps), len(weights))
		if len(weights) < len(taps) {
			taps = taps[:len(weights)]
		} else {
			weights = weights[:len(taps)]
		}
		if len(taps) == 0 {
			return g.Const(0)
		}
	}
	acc := g.OpNode(ir.OpMul, taps[0], g.Const(weights[0]))
	for i := 1; i < len(taps); i++ {
		m := g.OpNode(ir.OpMul, taps[i], g.Const(weights[i]))
		acc = g.OpNode(ir.OpAdd, acc, m)
	}
	return acc
}

// sumTree accumulates taps with an add chain (no weights).
func sumTree(g *ir.Graph, taps []ir.NodeRef) ir.NodeRef {
	acc := taps[0]
	for i := 1; i < len(taps); i++ {
		acc = g.OpNode(ir.OpAdd, acc, taps[i])
	}
	return acc
}

// clampU8 clamps a word to [0, 255] with unsigned min/max, the standard
// tail of every image-processing kernel.
func clampU8(g *ir.Graph, v ir.NodeRef) ir.NodeRef {
	lo := g.OpNode(ir.OpUMax, v, g.Const(0))
	return g.OpNode(ir.OpUMin, lo, g.Const(255))
}

// avg2 computes (a+b)>>1 with a constant shift.
func avg2(g *ir.Graph, a, b ir.NodeRef) ir.NodeRef {
	s := g.OpNode(ir.OpAdd, a, b)
	return g.OpNode(ir.OpLshr, s, g.Const(1))
}

// window materializes a rows x cols stencil window over a single stream
// input the way Halide lowering does: one line-buffer (memory tile) per
// additional row, and a register chain along each row for column offsets.
// window[r][c] is the tap at row r, column c. The newest sample is
// window[rows-1][cols-1]. The last element of the bottom row chain is
// returned as well so callers can hang double-buffer padding off it.
func window(g *ir.Graph, name string, rows, cols int) ([][]ir.NodeRef, ir.NodeRef) {
	in := g.Input(name)
	taps := make([][]ir.NodeRef, rows)
	rowHead := in
	var last ir.NodeRef = in
	for r := rows - 1; r >= 0; r-- {
		taps[r] = make([]ir.NodeRef, cols)
		taps[r][cols-1] = rowHead
		cur := rowHead
		for c := cols - 2; c >= 0; c-- {
			cur = g.Reg(cur)
			taps[r][c] = cur
		}
		if r > 0 {
			rowHead = g.Mem(rowHead)
			last = rowHead
		}
	}
	return taps, last
}

// passthrough adds n input->output stream pairs that traverse the fabric
// unmodified (auxiliary plane movement); they contribute I/O tiles but no
// compute, matching workloads whose I/O footprint exceeds their compute.
func passthrough(g *ir.Graph, prefix string, n int) {
	for i := 0; i < n; i++ {
		in := g.Input(fmt.Sprintf("%s%d_in", prefix, i))
		g.Output(fmt.Sprintf("%s%d_out", prefix, i), in)
	}
}

// padMem appends extra line-buffer capacity to match the paper's
// memory-tile footprint: double-buffering and coarse-grained storage that
// lowering allocates beyond the minimal tap chain. The padding hangs off
// src and terminates in the returned ref, which callers typically wire to
// an output's input path or leave as auxiliary state feeding an output.
func padMem(g *ir.Graph, src ir.NodeRef, n int) ir.NodeRef {
	cur := src
	for i := 0; i < n; i++ {
		cur = g.Mem(cur)
	}
	return cur
}
