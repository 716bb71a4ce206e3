package rewrite

import (
	"fmt"
	"strings"
)

// DOT renders the mapped graph in Graphviz syntax: PEs as boxes labeled
// with their rule, memories as cylinders, I/O as ellipses, and balancing
// registers/FIFOs as small circles — useful for inspecting what the
// instruction selector and branch delay matcher produced.
func (m *Mapped) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", m.Name)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		var label, shape string
		switch n.Kind {
		case KindPE:
			label, shape = "PE "+n.Rule.Name, "box"
		case KindMem:
			label, shape = "mem", "cylinder"
		case KindRom:
			label, shape = fmt.Sprintf("rom%d", n.Val), "cylinder"
		case KindRegFile:
			label, shape = fmt.Sprintf("rf[%d]", n.Depth), "cylinder"
		case KindReg:
			label, shape = "r", "circle"
		case KindInput, KindInputB:
			label, shape = n.Name, "ellipse"
		case KindOutput:
			label, shape = n.Name, "doubleoctagon"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", i, label, shape)
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Kind {
		case KindPE:
			for pos, p := range n.DataIn {
				if p >= 0 {
					fmt.Fprintf(&b, "  n%d -> n%d [label=\"in%d\"];\n", p, i, pos)
				}
			}
			for pos, p := range n.BitIn {
				if p >= 0 {
					fmt.Fprintf(&b, "  n%d -> n%d [label=\"inb%d\", style=dashed];\n", p, i, pos)
				}
			}
		default:
			if n.Arg >= 0 {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", n.Arg, i)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
