package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Stereo returns a block-matching stereo depth estimator: for each of four
// candidate disparities, the sum of absolute differences over a 3x3 window
// between the left and right images, then an argmin reduction to the best
// disparity. Unseen during PE generation (Fig. 13).
func Stereo() *App { return stereo() }

var stereo = sync.OnceValue(buildStereo)

func buildStereo() *App {
	g := ir.NewGraph("stereo")
	const unroll = 2
	const disparities = 4

	lt, lastL := window(g, "left", 3, unroll+2)
	rt, lastR := window(g, "right", 3, unroll+2+disparities-1)

	for u := 0; u < unroll; u++ {
		var bestCost, bestDisp ir.NodeRef
		for d := 0; d < disparities; d++ {
			// SAD over the 3x3 window at disparity d.
			var diffs []ir.NodeRef
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					dd := g.OpNode(ir.OpSub, lt[r][u+c], rt[r][u+c+d])
					diffs = append(diffs, g.OpNode(ir.OpAbs, dd))
				}
			}
			cost := sumTree(g, diffs)
			dc := g.Const(uint16(d))
			if d == 0 {
				bestCost, bestDisp = cost, dc
				continue
			}
			better := g.OpNode(ir.OpUlt, cost, bestCost)
			bestCost = g.OpNode(ir.OpSel, better, cost, bestCost)
			bestDisp = g.OpNode(ir.OpSel, better, dc, bestDisp)
		}
		// Confidence: low cost means confident match.
		conf := g.OpNode(ir.OpUMin, g.OpNode(ir.OpLshr, bestCost, g.Const(3)), g.Const(255))
		g.Output(fmt.Sprintf("disp%d", u), bestDisp)
		g.Output(fmt.Sprintf("conf%d", u), conf)
	}

	g.Output("aux_l", padMem(g, lastL, 6))
	g.Output("aux_r", padMem(g, lastR, 6))

	return &App{
		Name:         "stereo",
		Domain:       ImageProcessing,
		Description:  "Block-matching stereo: SAD over 4 disparities to a depth map",
		Graph:        g,
		Unroll:       unroll,
		TotalOutputs: fullHD,
		Seen:         false,
	}
}
