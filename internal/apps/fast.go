package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// FASTCorner returns the FAST corner detector: compare 16 pixels on a
// Bresenham circle of radius 3 against the center pixel plus/minus a
// threshold, count brighter and darker pixels, and flag a corner when
// either count clears the contiguity proxy threshold. Unseen during PE
// generation (Fig. 13).
func FASTCorner() *App { return fastCorner() }

var fastCorner = sync.OnceValue(buildFASTCorner)

func buildFASTCorner() *App {
	g := ir.NewGraph("fast")
	const unroll = 2

	// A 7-row window covers the radius-3 circle.
	taps, last := window(g, "img", 7, unroll+6)
	thresh := g.Input("thresh")

	// Circle offsets (row, col) relative to the window's top-left, for a
	// center at (3, 3+u).
	circle := [16][2]int{
		{0, 3}, {0, 4}, {1, 5}, {2, 6}, {3, 6}, {4, 6}, {5, 5}, {6, 4},
		{6, 3}, {6, 2}, {5, 1}, {4, 0}, {3, 0}, {2, 0}, {1, 1}, {0, 2},
	}

	for u := 0; u < unroll; u++ {
		center := taps[3][3+u]
		hi := g.OpNode(ir.OpAdd, center, thresh)
		lo := g.OpNode(ir.OpSub, center, thresh)

		var brighter, darker []ir.NodeRef
		for _, rc := range circle {
			p := taps[rc[0]][rc[1]+u]
			b := g.OpNode(ir.OpUgt, p, hi)
			d := g.OpNode(ir.OpUlt, p, lo)
			brighter = append(brighter, g.OpNode(ir.OpSel, b, g.Const(1), g.Const(0)))
			darker = append(darker, g.OpNode(ir.OpSel, d, g.Const(1), g.Const(0)))
		}
		nb := sumTree(g, brighter)
		nd := sumTree(g, darker)

		// Contiguity proxy: 12 of 16 must agree (the classic FAST-12).
		isB := g.OpNode(ir.OpUge, nb, g.Const(12))
		isD := g.OpNode(ir.OpUge, nd, g.Const(12))
		either := g.LUT(0b11111100, isB, isD, g.ConstB(false)) // OR of the first two inputs
		corner := g.OpNode(ir.OpSel, either, g.Const(1), g.Const(0))
		score := g.OpNode(ir.OpUMax, nb, nd)
		g.Output(fmt.Sprintf("corner%d", u), corner)
		g.Output(fmt.Sprintf("score%d", u), score)
	}

	g.Output("aux_state", padMem(g, last, 4))

	return &App{
		Name:         "fast",
		Domain:       ImageProcessing,
		Description:  "FAST-12 corner detection on a radius-3 circle",
		Graph:        g,
		Unroll:       unroll,
		TotalOutputs: fullHD,
		Seen:         false,
	}
}
