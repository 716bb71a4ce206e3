package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Camera returns the camera pipeline: denoise, demosaic, color correction,
// and color curves (the paper's Section 5.1 application). It uses every
// baseline PE operation except left shift and bitwise logic, needs ~90
// primitive operations (compute + constants) per output pixel, and is
// unrolled 4x to fill the 32x16 CGRA.
func Camera() *App { return camera() }

var camera = sync.OnceValue(buildCamera)

func buildCamera() *App {
	g := ir.NewGraph("camera")
	const unroll = 4

	// A 3x3 Bayer window per unrolled pixel: 3 rows x 6 columns of taps
	// shared across the 4 horizontally adjacent outputs, materialized as
	// one stream plus a line-buffer chain.
	tb := newTapBank(g, "bayer", 17) // 18 taps
	tap := func(row, col int) ir.NodeRef { return tb.tap(row*6 + col) }
	// Exposure-dependent knee point for the tone curve (set per frame).
	exposure := g.Input("exposure")

	for u := 0; u < unroll; u++ {
		phaseX := g.InputB(fmt.Sprintf("phase_x%d", u))
		phaseY := g.InputB(fmt.Sprintf("phase_y%d", u))

		center := tap(1, u+1)
		n, s := tap(0, u+1), tap(2, u+1)
		w, e := tap(1, u), tap(1, u+2)
		nw, ne := tap(0, u), tap(0, u+2)
		sw, se := tap(2, u), tap(2, u+2)

		// --- Denoise: clamp the center pixel to the min/max of its 4-
		// neighborhood (a separable approximation of a median filter).
		minv := g.OpNode(ir.OpUMin, g.OpNode(ir.OpUMin, n, s), g.OpNode(ir.OpUMin, w, e))
		maxv := g.OpNode(ir.OpUMax, g.OpNode(ir.OpUMax, n, s), g.OpNode(ir.OpUMax, w, e))
		dn := g.OpNode(ir.OpUMin, g.OpNode(ir.OpUMax, center, minv), maxv)

		// --- Demosaic (bilinear): interpolate the two missing channels.
		gSum := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, n, s), g.OpNode(ir.OpAdd, w, e))
		gRound := g.OpNode(ir.OpAdd, gSum, g.Const(2))
		gInterp := g.OpNode(ir.OpLshr, gRound, g.Const(2))
		rSum := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, nw, se), g.Const(1))
		rInterp := g.OpNode(ir.OpLshr, rSum, g.Const(1))
		bInterp := avg2(g, ne, sw)
		// Phase selects whether the center carries R or B; green comes
		// from the cross interpolation on non-green sites.
		red := g.OpNode(ir.OpSel, phaseX, dn, rInterp)
		blue := g.OpNode(ir.OpSel, phaseY, dn, bInterp)
		green := gInterp

		// --- Color correction: 3x3 matrix in Q8 fixed point.
		ccm := [3][3]uint16{{330, 64, 18}, {52, 310, 40}, {24, 72, 300}}
		var corrected [3]ir.NodeRef
		chans := [3]ir.NodeRef{red, green, blue}
		for c := 0; c < 3; c++ {
			acc := macTree(g, chans[:], ccm[c][:])
			corrected[c] = g.OpNode(ir.OpAshr, acc, g.Const(8))
		}

		// --- Color curve: per-channel two-segment gamma approximation,
		// then clamp to 8 bits.
		for c := 0; c < 3; c++ {
			x := corrected[c]
			knee := g.Const(64)
			if c == 0 {
				knee = exposure
			}
			hi := g.OpNode(ir.OpSge, x, knee)
			// Low segment: 2x (steep toe); high segment: x/2 + 96.
			low := g.OpNode(ir.OpAdd, x, x)
			high := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAshr, x, g.Const(1)), g.Const(96))
			curved := g.OpNode(ir.OpSel, hi, high, low)
			// Saturate to 8 bits (values are non-negative already).
			g.Output(fmt.Sprintf("out%d_%c", u, "rgb"[c]), g.OpNode(ir.OpUMin, curved, g.Const(255)))
		}

		// Saturation flag per pixel: |R - B| feeds the auto-white-balance
		// statistics output.
		sat := g.OpNode(ir.OpAbs, g.OpNode(ir.OpSub, corrected[0], corrected[2]))
		g.Output(fmt.Sprintf("sat%d", u), sat)
	}

	// Additional frame-buffer storage beyond the tap chain, matching the
	// paper's 39 memory tiles for camera (Table 3): double buffering of
	// the output rows. The padding is wired into auxiliary state outputs
	// so the graph stays fully connected.
	aux0 := padMem(g, tb.chain, 11)
	g.Output("aux_state0", aux0)
	aux1 := padMem(g, aux0, 11)
	g.Output("aux_state1", aux1)

	return &App{
		Name:         "camera",
		Domain:       ImageProcessing,
		Description:  "Transforms raw Bayer camera data into an RGB image",
		Graph:        g,
		Unroll:       4,
		TotalOutputs: fullHD,
		Seen:         true,
	}
}
