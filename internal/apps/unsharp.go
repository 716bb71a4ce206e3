package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Unsharp returns unsharp masking: RGB-to-luma conversion, a 7-tap
// separable Gaussian blur of the luma, an edge signal with coring
// (threshold on |edge|), and per-channel add-back with clamping.
// Unrolled 4x.
func Unsharp() *App { return unsharp() }

var unsharp = sync.OnceValue(buildUnsharp)

func buildUnsharp() *App {
	g := ir.NewGraph("unsharp")
	const unroll = 4
	const ktaps = 7

	// RGB input windows: 7 x (unroll+6) luma window is computed from the
	// three channel windows' center rows; to bound graph size the luma is
	// computed per column of the widest row and blurred separably.
	taps, last := window(g, "lumain", ktaps, unroll+ktaps-1)
	r0 := g.Input("r")
	g0 := g.Input("g")
	b0 := g.Input("b")
	amount := g.Input("amount")

	// Gaussian weights (sum 64).
	w := []uint16{2, 6, 12, 24, 12, 6, 2}

	// Shared vertical pass over each needed column.
	cols := unroll + ktaps - 1
	vert := make([]ir.NodeRef, cols)
	for c := 0; c < cols; c++ {
		col := make([]ir.NodeRef, ktaps)
		for r := 0; r < ktaps; r++ {
			col[r] = taps[r][c]
		}
		acc := macTree(g, col, w)
		rounded := g.OpNode(ir.OpAdd, acc, g.Const(32))
		vert[c] = g.OpNode(ir.OpAshr, rounded, g.Const(6))
	}

	for u := 0; u < unroll; u++ {
		// Per-pixel luma from the live channel streams (delayed copies
		// of the same pixel position arrive together in steady state).
		ry := g.OpNode(ir.OpMul, r0, g.Const(77))
		gy := g.OpNode(ir.OpMul, g0, g.Const(150))
		by := g.OpNode(ir.OpMul, b0, g.Const(29))
		lsum := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, ry, gy), by)
		lround := g.OpNode(ir.OpAdd, lsum, g.Const(128))
		luma := g.OpNode(ir.OpLshr, lround, g.Const(8))

		// Horizontal blur pass.
		hwin := vert[u : u+ktaps]
		acc := macTree(g, hwin, w)
		hround := g.OpNode(ir.OpAdd, acc, g.Const(32))
		blur := g.OpNode(ir.OpAshr, hround, g.Const(6))

		// Edge signal with coring: zero out |edge| below the threshold.
		edge := g.OpNode(ir.OpSub, luma, blur)
		mag := g.OpNode(ir.OpAbs, edge)
		weak := g.OpNode(ir.OpUlt, mag, g.Const(4))
		cored := g.OpNode(ir.OpSel, weak, g.Const(0), edge)
		scaled := g.OpNode(ir.OpMul, cored, amount)
		srnd := g.OpNode(ir.OpAdd, scaled, g.Const(8))
		sharp := g.OpNode(ir.OpAshr, srnd, g.Const(4))

		// Add back into each channel and clamp.
		for c, ch := range []ir.NodeRef{r0, g0, b0} {
			sum := g.OpNode(ir.OpAdd, ch, sharp)
			g.Output(fmt.Sprintf("out%d_%c", u, "rgb"[c]), clampU8(g, sum))
		}
		if u == 0 {
			g.Output("luma_stat", g.OpNode(ir.OpUMin, luma, g.Const(255)))
		}
	}

	// Frame double-buffering.
	g.Output("aux_state", padMem(g, last, 33))
	// Alpha plane passthrough.
	passthrough(g, "alpha", 4)

	return &App{
		Name:         "unsharp",
		Domain:       ImageProcessing,
		Description:  "Sharpens an image by amplifying its high frequencies",
		Graph:        g,
		Unroll:       unroll,
		TotalOutputs: fullHD,
		Seen:         true,
	}
}
