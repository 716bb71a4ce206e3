package ir

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
)

// NodeRef identifies a node within a Graph.
type NodeRef int

// Node is a single IR operation instance.
type Node struct {
	Op   Op
	Args []NodeRef
	Val  uint16 // constant value, LUT truth table, or FIFO depth
	Name string // IO name for inputs/outputs; optional elsewhere
}

// Graph is a dataflow DAG of IR nodes. Node 0 is the first added node;
// references are indices into Nodes.
//
// Construction errors are sticky rather than fatal: a misuse of a builder
// method (e.g. OpNode with the wrong operand count) records the first such
// error on the graph and construction continues with a best-effort node, so
// fluent builder chains need no per-call error handling. Err reports the
// first recorded error, and Validate, Eval, and Simulate surface it, so a
// malformed graph cannot silently flow into evaluation.
type Graph struct {
	Nodes []Node
	Name  string
	err   error
}

// Failf records a construction error on the graph. Only the first error is
// kept; later ones are dropped. The error is classified fault.ErrInvariant.
func (g *Graph) Failf(format string, args ...any) {
	if g.err == nil {
		g.err = fault.Invariantf(format, args...)
	}
}

// Err reports the first construction error recorded on the graph, or nil.
func (g *Graph) Err() error { return g.err }

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// add appends a node and returns its ref.
func (g *Graph) add(n Node) NodeRef {
	g.Nodes = append(g.Nodes, n)
	return NodeRef(len(g.Nodes) - 1)
}

// Input adds a named 16-bit stream input.
func (g *Graph) Input(name string) NodeRef {
	return g.add(Node{Op: OpInput, Name: name})
}

// InputB adds a named 1-bit stream input.
func (g *Graph) InputB(name string) NodeRef {
	return g.add(Node{Op: OpInputB, Name: name})
}

// Const adds a 16-bit constant node.
func (g *Graph) Const(v uint16) NodeRef {
	return g.add(Node{Op: OpConst, Val: v})
}

// ConstB adds a 1-bit constant node.
func (g *Graph) ConstB(v bool) NodeRef {
	val := uint16(0)
	if v {
		val = 1
	}
	return g.add(Node{Op: OpConstB, Val: val})
}

// OpNode adds a compute or structural node with the given operands. An
// operand count that does not match the op's arity records a sticky
// construction error (see Err) and the node is still added so the returned
// ref stays usable by subsequent builder calls.
func (g *Graph) OpNode(op Op, args ...NodeRef) NodeRef {
	if a := op.Arity(); a >= 0 && len(args) != a {
		g.Failf("ir: %s takes %d args, got %d", op, a, len(args))
	}
	return g.add(Node{Op: op, Args: append([]NodeRef(nil), args...)})
}

// LUT adds a 3-input LUT node with the given 8-bit truth table.
func (g *Graph) LUT(table uint8, a, b, c NodeRef) NodeRef {
	return g.add(Node{Op: OpLUT, Val: uint16(table), Args: []NodeRef{a, b, c}})
}

// Reg adds a pipeline register after src.
func (g *Graph) Reg(src NodeRef) NodeRef {
	return g.add(Node{Op: OpReg, Args: []NodeRef{src}})
}

// RegFileFIFO adds a register-file FIFO of the given depth after src.
func (g *Graph) RegFileFIFO(src NodeRef, depth int) NodeRef {
	return g.add(Node{Op: OpRegFileFIFO, Val: uint16(depth), Args: []NodeRef{src}})
}

// Mem adds a memory-tile (line buffer) node after src.
func (g *Graph) Mem(src NodeRef) NodeRef {
	return g.add(Node{Op: OpMem, Args: []NodeRef{src}})
}

// Rom adds a constant-table lookup addressed by addr. Val selects a table
// id that the evaluator hashes into deterministic contents.
func (g *Graph) Rom(addr NodeRef, tableID uint16) NodeRef {
	return g.add(Node{Op: OpRom, Val: tableID, Args: []NodeRef{addr}})
}

// Output adds a named output fed by src.
func (g *Graph) Output(name string, src NodeRef) NodeRef {
	return g.add(Node{Op: OpOutput, Name: name, Args: []NodeRef{src}})
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// Clone returns a deep copy of the graph, including any sticky error.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, Nodes: make([]Node, len(g.Nodes)), err: g.err}
	for i, n := range g.Nodes {
		c.Nodes[i] = n
		c.Nodes[i].Args = append([]NodeRef(nil), n.Args...)
	}
	return c
}

// Inputs returns the refs of all input nodes (both widths) in order.
func (g *Graph) Inputs() []NodeRef {
	var ins []NodeRef
	for i, n := range g.Nodes {
		if n.Op == OpInput || n.Op == OpInputB {
			ins = append(ins, NodeRef(i))
		}
	}
	return ins
}

// Outputs returns the refs of all output nodes in order.
func (g *Graph) Outputs() []NodeRef {
	var outs []NodeRef
	for i, n := range g.Nodes {
		if n.Op == OpOutput {
			outs = append(outs, NodeRef(i))
		}
	}
	return outs
}

// CountOps tallies nodes per op.
func (g *Graph) CountOps() map[Op]int {
	m := make(map[Op]int)
	for _, n := range g.Nodes {
		m[n.Op]++
	}
	return m
}

// ComputeNodeCount returns the number of minable compute nodes.
func (g *Graph) ComputeNodeCount() int {
	c := 0
	for _, n := range g.Nodes {
		if n.Op.IsCompute() {
			c++
		}
	}
	return c
}

// Validate checks referential integrity, arities, and acyclicity, and
// surfaces any sticky construction error first.
func (g *Graph) Validate() error {
	if g.err != nil {
		return g.err
	}
	for i, n := range g.Nodes {
		if n.Op == OpInvalid || n.Op >= opMax {
			return fmt.Errorf("ir: node %d has invalid op %d", i, n.Op)
		}
		if arity := n.Op.Arity(); arity >= 0 && len(n.Args) != arity {
			return fmt.Errorf("ir: node %d (%s) has %d args, want %d", i, n.Op, len(n.Args), arity)
		}
		for _, a := range n.Args {
			if a < 0 || int(a) >= len(g.Nodes) {
				return fmt.Errorf("ir: node %d (%s) references out-of-range node %d", i, n.Op, a)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns node refs in dependency order (operands first).
func (g *Graph) TopoOrder() ([]NodeRef, error) {
	n := len(g.Nodes)
	state := make([]uint8, n) // 0 unvisited, 1 in-stack, 2 done
	order := make([]NodeRef, 0, n)
	var visit func(v NodeRef) error
	visit = func(v NodeRef) error {
		switch state[v] {
		case 1:
			return fmt.Errorf("ir: cycle through node %d (%s)", v, g.Nodes[v].Op)
		case 2:
			return nil
		}
		state[v] = 1
		for _, a := range g.Nodes[v].Args {
			if err := visit(a); err != nil {
				return err
			}
		}
		state[v] = 2
		order = append(order, v)
		return nil
	}
	for v := 0; v < n; v++ {
		if err := visit(NodeRef(v)); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// ToLabeled converts the IR graph into the generic labeled graph the miner
// operates on. Every IR node becomes a graph node labeled with the op name;
// every operand relation becomes a ported edge (arg -> user, port =
// operand index). Commutative two-operand ops are canonicalized to port 0
// on both operands so that mining does not split a commutative pattern
// into spurious port variants.
func (g *Graph) ToLabeled() (*graph.Graph, []NodeRef) {
	lg := graph.New()
	refs := make([]NodeRef, len(g.Nodes))
	for i, n := range g.Nodes {
		lg.AddNode(n.Op.Name())
		refs[i] = NodeRef(i)
	}
	for i, n := range g.Nodes {
		comm := n.Op.Commutative() && len(n.Args) == 2
		for p, a := range n.Args {
			port := p
			if comm {
				port = 0
			}
			lg.AddEdge(graph.NodeID(a), graph.NodeID(i), port)
		}
	}
	return lg, refs
}

// FromLabeled converts a mined pattern (generic labeled graph) back into an
// IR graph. Node labels must be valid op names. Edge ports give operand
// positions; for commutative ops mined with collapsed ports, operands are
// assigned in edge order. Pattern nodes with missing operands get fresh
// Input leaves so the result is a well-formed IR graph ("pattern inputs").
func FromLabeled(p *graph.Graph) (*Graph, error) {
	g := NewGraph("pattern")
	refs := make([]NodeRef, p.NumNodes())
	order, err := p.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("ir: pattern not a DAG: %w", err)
	}
	for i := range refs {
		refs[i] = -1
	}
	inputCount := 0
	for _, v := range order {
		op := OpByName(p.Label(v))
		if op == OpInvalid {
			return nil, fmt.Errorf("ir: unknown op label %q", p.Label(v))
		}
		arity := op.Arity()
		args := make([]NodeRef, arity)
		for i := range args {
			args[i] = -1
		}
		// Fill operands from incoming edges.
		free := func() int {
			for i, a := range args {
				if a < 0 {
					return i
				}
			}
			return -1
		}
		for _, e := range p.In(v) {
			src := refs[e.From]
			if src < 0 {
				return nil, fmt.Errorf("ir: pattern edge from unprocessed node %d", e.From)
			}
			slot := e.Port
			if slot >= arity || args[slot] >= 0 {
				slot = free()
			}
			if slot < 0 {
				return nil, fmt.Errorf("ir: pattern node %d (%s) has too many operands", v, op)
			}
			args[slot] = src
		}
		// Remaining operands become pattern inputs.
		for i, a := range args {
			if a >= 0 {
				continue
			}
			var in NodeRef
			if op == OpLUT || (op == OpSel && i == 0) {
				in = g.InputB(fmt.Sprintf("pin%d", inputCount))
			} else {
				in = g.Input(fmt.Sprintf("pin%d", inputCount))
			}
			inputCount++
			args[i] = in
		}
		if arity == 0 {
			refs[v] = g.add(Node{Op: op})
		} else {
			refs[v] = g.OpNode(op, args...)
		}
	}
	// Nodes with no users become outputs.
	used := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			used[a] = true
		}
	}
	var sinks []NodeRef
	for i := range used {
		if !used[i] && g.Nodes[i].Op != OpOutput {
			sinks = append(sinks, NodeRef(i))
		}
	}
	for outIdx, s := range sinks {
		g.Output(fmt.Sprintf("pout%d", outIdx), s)
	}
	return g, nil
}
