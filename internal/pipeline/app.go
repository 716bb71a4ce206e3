package pipeline

import "repro/internal/rewrite"

// memLatency is the cycle latency of a memory or ROM tile.
const memLatency = 1

// AppOptions tunes application pipelining.
type AppOptions struct {
	// PELatency is the pipeline depth of every PE tile (homogeneous
	// fabric), from PipelinePE.
	PELatency int
	// FIFOCutoff is the register-chain length above which a chain is
	// replaced by a register-file FIFO (paper Section 4.3: "register
	// chains greater than length 2"); default 2. Negative disables the
	// substitution entirely (ablation).
	FIFOCutoff int
}

func (o AppOptions) withDefaults() AppOptions {
	if o.FIFOCutoff == 0 {
		o.FIFOCutoff = 2
	}
	return o
}

// BalanceReport summarizes what branch delay matching inserted.
type BalanceReport struct {
	RegsInserted  int // pipeline registers added (after FIFO substitution)
	FIFOsInserted int // register-file FIFOs substituted for long chains
	TotalLatency  int // input-to-output latency of the balanced design
}

// nodeLatency returns the cycle latency a mapped node contributes under
// the given options.
func nodeLatency(n *rewrite.MNode, opt AppOptions) int {
	switch n.Kind {
	case rewrite.KindPE:
		return opt.PELatency
	case rewrite.KindMem, rewrite.KindRom:
		return memLatency
	case rewrite.KindReg:
		return 1
	case rewrite.KindRegFile:
		return n.Depth
	default:
		return 0
	}
}

// BalanceApp performs branch delay matching on a mapped application
// graph (paper Section 4.3): traverse from inputs to outputs tracking
// data arrival times; wherever a node's operands arrive at different
// cycles, insert pipeline registers on the early paths. Register chains
// longer than FIFOCutoff become register-file FIFOs. The input graph is
// not modified; a balanced copy is returned.
func BalanceApp(m *rewrite.Mapped, opt AppOptions) (*rewrite.Mapped, BalanceReport) {
	opt = opt.withDefaults()
	out := &rewrite.Mapped{Name: m.Name + "+balanced", Spec: m.Spec}
	// Copy nodes; indices are preserved, padding nodes appended. Port
	// slices are the only fields balancing rewrites, so the copy gets
	// its own, all on one backing array; constants stay shared.
	out.Nodes = append(make([]rewrite.MNode, 0, len(m.Nodes)+len(m.Nodes)/2), m.Nodes...)
	nports := 0
	for i := range m.Nodes {
		nports += len(m.Nodes[i].DataIn) + len(m.Nodes[i].BitIn)
	}
	ports := make([]int, 0, nports)
	for i := range out.Nodes {
		n := &out.Nodes[i]
		if n.DataIn != nil {
			ports = append(ports, n.DataIn...)
			n.DataIn = ports[len(ports)-len(n.DataIn) : len(ports) : len(ports)]
		}
		if n.BitIn != nil {
			ports = append(ports, n.BitIn...)
			n.BitIn = ports[len(ports)-len(n.BitIn) : len(ports) : len(ports)]
		}
	}

	var report BalanceReport
	arrival := make([]int, len(m.Nodes))

	// delayed returns a node index presenting producer p's value delayed
	// to cycle 'want'.
	delayed := func(p int, want int) int {
		have := arrival[p]
		gap := want - have
		if gap <= 0 {
			return p
		}
		if opt.FIFOCutoff >= 0 && gap > opt.FIFOCutoff {
			out.Nodes = append(out.Nodes, rewrite.MNode{
				Kind: rewrite.KindRegFile, Arg: p, Depth: gap,
			})
			report.FIFOsInserted++
			return len(out.Nodes) - 1
		}
		cur := p
		for i := 0; i < gap; i++ {
			out.Nodes = append(out.Nodes, rewrite.MNode{Kind: rewrite.KindReg, Arg: cur})
			report.RegsInserted++
			cur = len(out.Nodes) - 1
		}
		return cur
	}

	var prods []int
	for _, i := range m.TopoOrder() {
		n := &out.Nodes[i]
		prods = m.Nodes[i].AppendProducers(prods[:0])
		if len(prods) == 0 {
			arrival[i] = nodeLatency(n, opt)
			continue
		}
		latest := 0
		for _, p := range prods {
			if arrival[p] > latest {
				latest = arrival[p]
			}
		}
		// Delay-match every operand to the latest arrival.
		switch n.Kind {
		case rewrite.KindPE:
			// Ascending port order: delayed() appends register nodes,
			// so the order fixes their indices and with them the whole
			// place-and-route pipeline downstream.
			for _, ports := range [2][]int{n.DataIn, n.BitIn} {
				for pos, p := range ports {
					if p >= 0 {
						ports[pos] = delayed(p, latest)
					}
				}
			}
		default:
			if n.Arg >= 0 {
				n.Arg = delayed(n.Arg, latest)
			}
		}
		arrival[i] = latest + nodeLatency(n, opt)
		if arrival[i] > report.TotalLatency {
			report.TotalLatency = arrival[i]
		}
	}
	return out, report
}

// CheckBalanced verifies the branch-delay-matching invariant: every
// multi-operand node sees identical arrival times on all operands. It
// returns the first offending node index, or -1 when balanced.
func CheckBalanced(m *rewrite.Mapped, opt AppOptions) int {
	opt = opt.withDefaults()
	arrival := make([]int, len(m.Nodes))
	var prods []int
	for _, i := range m.TopoOrder() {
		n := &m.Nodes[i]
		prods = n.AppendProducers(prods[:0])
		if len(prods) > 1 {
			first := arrival[prods[0]]
			for _, p := range prods[1:] {
				if arrival[p] != first {
					return i
				}
			}
		}
		in := 0
		if len(prods) > 0 {
			in = arrival[prods[0]]
			for _, p := range prods {
				if arrival[p] > in {
					in = arrival[p]
				}
			}
		}
		arrival[i] = in + nodeLatency(n, opt)
	}
	return -1
}
