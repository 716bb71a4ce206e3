package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Harris returns the Harris corner detector: Sobel gradients, structure
// tensor products with horizontal smoothing, the corner response
// det(M) - k*trace(M)^2, non-maximum suppression, and thresholding.
// Unrolled 4x like the other image-processing applications.
func Harris() *App { return harris() }

var harris = sync.OnceValue(buildHarris)

func buildHarris() *App {
	g := ir.NewGraph("harris")
	const unroll = 4

	// 3x3 grayscale window shared across the unrolled outputs.
	tb := newTapBank(g, "gray", 17) // 18 taps
	tap := func(row, col int) ir.NodeRef { return tb.tap(row*6 + col) }
	thresh := g.Input("thresh")

	type tensor struct{ sxx, syy, sxy ir.NodeRef }
	tens := make([]tensor, unroll)
	resp := make([]ir.NodeRef, unroll)

	for u := 0; u < unroll; u++ {
		// --- Sobel gradients with rounding.
		sobel := func(a0, a1, a2, b0, b1, b2 ir.NodeRef) ir.NodeRef {
			ap := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, a0, g.OpNode(ir.OpShl, a1, g.Const(1))), a2)
			bp := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, b0, g.OpNode(ir.OpShl, b1, g.Const(1))), b2)
			d := g.OpNode(ir.OpSub, ap, bp)
			rounded := g.OpNode(ir.OpAdd, d, g.Const(2))
			return g.OpNode(ir.OpAshr, rounded, g.Const(2))
		}
		ix := sobel(tap(0, u+2), tap(1, u+2), tap(2, u+2), tap(0, u), tap(1, u), tap(2, u))
		iy := sobel(tap(2, u), tap(2, u+1), tap(2, u+2), tap(0, u), tap(0, u+1), tap(0, u+2))

		// --- Structure tensor products, rounded and scaled back into
		// 16-bit range.
		scale := func(x ir.NodeRef) ir.NodeRef {
			return g.OpNode(ir.OpAshr, g.OpNode(ir.OpAdd, x, g.Const(8)), g.Const(4))
		}
		tens[u] = tensor{
			sxx: scale(g.OpNode(ir.OpMul, ix, ix)),
			syy: scale(g.OpNode(ir.OpMul, iy, iy)),
			sxy: scale(g.OpNode(ir.OpMul, ix, iy)),
		}
	}

	// --- Horizontal smoothing of the tensor using unroll-adjacent
	// columns (clamped at the unroll boundary).
	smooth := func(u int, get func(tensor) ir.NodeRef) ir.NodeRef {
		l, r := u-1, u+1
		if l < 0 {
			l = u
		}
		if r >= unroll {
			r = u
		}
		s := g.OpNode(ir.OpAdd, get(tens[l]), get(tens[u]))
		return g.OpNode(ir.OpAdd, s, get(tens[r]))
	}
	for u := 0; u < unroll; u++ {
		sxx := smooth(u, func(t tensor) ir.NodeRef { return t.sxx })
		syy := smooth(u, func(t tensor) ir.NodeRef { return t.syy })
		sxy := smooth(u, func(t tensor) ir.NodeRef { return t.sxy })

		// --- Corner response: det - k*trace^2 with k ~ 1/16.
		det := g.OpNode(ir.OpSub, g.OpNode(ir.OpMul, sxx, syy), g.OpNode(ir.OpMul, sxy, sxy))
		detS := g.OpNode(ir.OpAshr, det, g.Const(4))
		trace := g.OpNode(ir.OpAdd, sxx, syy)
		tr2 := g.OpNode(ir.OpMul, trace, trace)
		ktr2 := g.OpNode(ir.OpLshr, tr2, g.Const(4))
		r := g.OpNode(ir.OpSub, detS, ktr2)
		// Clamp the response to a positive 8.8 fixed-point range.
		rAbs := g.OpNode(ir.OpAbs, r)
		resp[u] = g.OpNode(ir.OpUMin, rAbs, g.Const(0x7fff))
	}

	// --- Horizontal non-max suppression and thresholding.
	for u := 0; u < unroll; u++ {
		l, r := u-1, u+1
		if l < 0 {
			l = u
		}
		if r >= unroll {
			r = u
		}
		nmax := g.OpNode(ir.OpUMax, resp[l], resp[r])
		isMax := g.OpNode(ir.OpUgt, resp[u], nmax)
		suppressed := g.OpNode(ir.OpSel, isMax, resp[u], g.Const(0))
		over := g.OpNode(ir.OpUge, suppressed, thresh)
		corner := g.OpNode(ir.OpSel, over, g.Const(1), g.Const(0))
		g.Output(fmt.Sprintf("resp%d", u), suppressed)
		g.Output(fmt.Sprintf("corner%d", u), corner)
	}

	return &App{
		Name:         "harris",
		Domain:       ImageProcessing,
		Description:  "Identifies corners within an image (Harris detector)",
		Graph:        g,
		Unroll:       unroll,
		TotalOutputs: fullHD,
		Seen:         true,
	}
}
