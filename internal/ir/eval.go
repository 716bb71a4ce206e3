package ir

// EvalOp computes a single op on already-evaluated operands. Words are
// uint16; 1-bit values are represented as 0/1. val is the node's immediate
// (constant value, LUT table, ROM table id). EvalOp is total: an op it does
// not model evaluates to 0, so a malformed node cannot crash a simulation —
// Graph.Validate is the place where unknown ops are rejected with an error.
func EvalOp(op Op, args []uint16, val uint16) uint16 {
	bit := func(b bool) uint16 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case OpConst, OpConstB:
		return val
	case OpAdd:
		return args[0] + args[1]
	case OpSub:
		return args[0] - args[1]
	case OpMul:
		return args[0] * args[1]
	case OpNeg:
		return -args[0]
	case OpAbs:
		v := int16(args[0])
		if v < 0 {
			v = -v
		}
		return uint16(v)
	case OpShl:
		return args[0] << (args[1] & 15)
	case OpLshr:
		return args[0] >> (args[1] & 15)
	case OpAshr:
		return uint16(int16(args[0]) >> (args[1] & 15))
	case OpAnd:
		return args[0] & args[1]
	case OpOr:
		return args[0] | args[1]
	case OpXor:
		return args[0] ^ args[1]
	case OpNot:
		return ^args[0]
	case OpSMin:
		if int16(args[0]) < int16(args[1]) {
			return args[0]
		}
		return args[1]
	case OpSMax:
		if int16(args[0]) > int16(args[1]) {
			return args[0]
		}
		return args[1]
	case OpUMin:
		if args[0] < args[1] {
			return args[0]
		}
		return args[1]
	case OpUMax:
		if args[0] > args[1] {
			return args[0]
		}
		return args[1]
	case OpEq:
		return bit(args[0] == args[1])
	case OpNeq:
		return bit(args[0] != args[1])
	case OpSlt:
		return bit(int16(args[0]) < int16(args[1]))
	case OpSle:
		return bit(int16(args[0]) <= int16(args[1]))
	case OpSgt:
		return bit(int16(args[0]) > int16(args[1]))
	case OpSge:
		return bit(int16(args[0]) >= int16(args[1]))
	case OpUlt:
		return bit(args[0] < args[1])
	case OpUle:
		return bit(args[0] <= args[1])
	case OpUgt:
		return bit(args[0] > args[1])
	case OpUge:
		return bit(args[0] >= args[1])
	case OpSel:
		if args[0]&1 != 0 {
			return args[1]
		}
		return args[2]
	case OpLUT:
		idx := (args[0]&1)<<2 | (args[1]&1)<<1 | (args[2] & 1)
		return (val >> idx) & 1
	case OpRom:
		return romValue(val, args[0])
	case OpReg, OpRegFileFIFO, OpMem:
		// Transparent in combinational evaluation; Simulate models delay.
		return args[0]
	default:
		return 0
	}
}

// romValue produces deterministic pseudo-contents for ROM table tableID at
// the given address: a cheap integer hash, stable across runs.
func romValue(tableID, addr uint16) uint16 {
	x := uint32(tableID)*2654435761 + uint32(addr)*40503
	x ^= x >> 13
	x *= 2246822519
	x ^= x >> 11
	return uint16(x)
}

// Eval evaluates the graph combinationally: registers, FIFOs and memories
// are transparent (zero-delay). Inputs are bound by name; missing inputs
// default to zero. The result maps output names to values.
func (g *Graph) Eval(inputs map[string]uint16) (map[string]uint16, error) {
	if g.err != nil {
		return nil, g.err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := make([]uint16, len(g.Nodes))
	outs := make(map[string]uint16)
	for _, v := range order {
		n := &g.Nodes[v]
		switch n.Op {
		case OpInput, OpInputB:
			vals[v] = inputs[n.Name]
			if n.Op == OpInputB {
				vals[v] &= 1
			}
		default:
			vals[v] = EvalNode(n, vals)
			if n.Op == OpOutput {
				outs[n.Name] = vals[v]
			}
		}
	}
	return outs, nil
}

// EvalNode computes the combinational value of a non-input node from the
// values of its operands, indexed by node in vals: an output passes its
// operand through, registers, FIFOs and memories are transparent, and
// every other node applies EvalOp to its operands and immediate. Inputs
// are bound by the caller. Eval runs it on every node; callers that
// evaluate one graph on many vectors reuse it over a TopoOrder computed
// once.
func EvalNode(n *Node, vals []uint16) uint16 {
	if n.Op == OpOutput {
		return vals[n.Args[0]]
	}
	var buf [3]uint16 // operands stay on the stack up to arity 3
	args := buf[:0]
	for _, a := range n.Args {
		args = append(args, vals[a])
	}
	return EvalOp(n.Op, args, n.Val)
}

// Latency returns the sequential delay (in cycles) contributed by a node:
// 1 for registers and memories, the FIFO depth for register files, 0 for
// everything else.
func (n *Node) Latency() int {
	switch n.Op {
	case OpReg, OpMem:
		return 1
	case OpRegFileFIFO:
		return int(n.Val)
	default:
		return 0
	}
}

// Simulate runs a cycle-accurate simulation for the given number of
// cycles. inputs[name][t] is the value of that input at cycle t (the last
// value is held if the stream is shorter than cycles). Registers delay by
// one cycle, memories by one cycle, register-file FIFOs by their depth.
// The result maps each output name to its per-cycle value trace.
func (g *Graph) Simulate(inputs map[string][]uint16, cycles int) (map[string][]uint16, error) {
	if g.err != nil {
		return nil, g.err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Per-node delay lines: state[v] holds the last Latency() values.
	state := make([][]uint16, len(g.Nodes))
	for v := range g.Nodes {
		if l := g.Nodes[v].Latency(); l > 0 {
			state[v] = make([]uint16, l)
		}
	}
	vals := make([]uint16, len(g.Nodes))
	outs := make(map[string][]uint16)
	for i := range g.Nodes {
		if g.Nodes[i].Op == OpOutput {
			outs[g.Nodes[i].Name] = make([]uint16, 0, cycles)
		}
	}
	at := func(stream []uint16, t int) uint16 {
		if len(stream) == 0 {
			return 0
		}
		if t >= len(stream) {
			return stream[len(stream)-1]
		}
		return stream[t]
	}
	for t := 0; t < cycles; t++ {
		for _, v := range order {
			n := &g.Nodes[v]
			switch n.Op {
			case OpInput, OpInputB:
				vals[v] = at(inputs[n.Name], t)
				if n.Op == OpInputB {
					vals[v] &= 1
				}
			case OpOutput:
				vals[v] = vals[n.Args[0]]
			case OpReg, OpMem, OpRegFileFIFO:
				// Output the oldest stored value, then shift in the new one.
				line := state[v]
				out := line[0]
				copy(line, line[1:])
				line[len(line)-1] = vals[n.Args[0]]
				vals[v] = out
			default:
				args := make([]uint16, len(n.Args))
				for i, a := range n.Args {
					args[i] = vals[a]
				}
				vals[v] = EvalOp(n.Op, args, n.Val)
			}
		}
		for i := range g.Nodes {
			if g.Nodes[i].Op == OpOutput {
				outs[g.Nodes[i].Name] = append(outs[g.Nodes[i].Name], vals[i])
			}
		}
	}
	return outs, nil
}

// TotalLatency returns the maximum sequential latency (in cycles) along
// any input-to-output path.
func (g *Graph) TotalLatency() (int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	lat := make([]int, len(g.Nodes))
	maxLat := 0
	for _, v := range order {
		n := &g.Nodes[v]
		in := 0
		for _, a := range n.Args {
			if lat[a] > in {
				in = lat[a]
			}
		}
		lat[v] = in + n.Latency()
		if lat[v] > maxLat {
			maxLat = lat[v]
		}
	}
	return maxLat, nil
}
