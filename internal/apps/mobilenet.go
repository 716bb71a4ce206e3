package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// MobileNet returns one MobileNet block tile: a 3x3 depthwise convolution
// over four channels with ReLU6 and requantization, followed by a 1x1
// pointwise convolution producing two output channels. MobileNet is the
// most memory-heavy workload in the suite (52 memory tiles in Table 3):
// the depthwise stage double-buffers every channel.
func MobileNet() *App { return mobileNet() }

var mobileNet = sync.OnceValue(buildMobileNet)

func buildMobileNet() *App {
	g := ir.NewGraph("mobilenet")
	const dwCh = 4
	const pwCh = 2

	scale := g.Input("scale")
	zeroPoint := g.Input("zeropoint")
	dwOut := make([]ir.NodeRef, dwCh)

	for ch := 0; ch < dwCh; ch++ {
		taps, last := window(g, fmt.Sprintf("ifmap%d", ch), 3, 3)
		flat := []ir.NodeRef{
			taps[0][0], taps[0][1], taps[0][2],
			taps[1][0], taps[1][1], taps[1][2],
			taps[2][0], taps[2][1], taps[2][2],
		}
		w := make([]uint16, 9)
		for i := range w {
			w[i] = uint16(2 + ch + i)
		}
		conv := macTree(g, flat, w)
		rounded := g.OpNode(ir.OpAdd, conv, g.Const(32))
		quant := g.OpNode(ir.OpAshr, rounded, g.Const(6))
		// ReLU6 in 8.4 fixed point: clamp to [0, 96].
		lo := g.OpNode(ir.OpSMax, quant, g.Const(0))
		relu6 := g.OpNode(ir.OpUMin, lo, g.Const(96))
		dwOut[ch] = relu6
		g.Output(fmt.Sprintf("dw%d", ch), relu6)

		// Per-channel activation double-buffering (the Table 3 memory
		// footprint): 11 memory tiles beyond the 2 in-window buffers.
		dwOut[ch] = padMem(g, dwOut[ch], 11)
		_ = last
	}

	// Pointwise 1x1 across the four depthwise outputs.
	for oc := 0; oc < pwCh; oc++ {
		w := make([]uint16, dwCh)
		for i := range w {
			w[i] = uint16(4 + 3*oc + i)
		}
		conv := macTree(g, dwOut, w)
		biased := g.OpNode(ir.OpAdd, conv, zeroPoint)
		scaled := g.OpNode(ir.OpMul, biased, scale)
		quant := g.OpNode(ir.OpAshr, scaled, g.Const(6))
		lo := g.OpNode(ir.OpSMax, quant, g.Const(0))
		relu6 := g.OpNode(ir.OpUMin, lo, g.Const(96))
		g.Output(fmt.Sprintf("pw%d", oc), relu6)
	}

	// Global average-pool statistic over the depthwise channels.
	s01 := g.OpNode(ir.OpAdd, dwOut[0], dwOut[1])
	s23 := g.OpNode(ir.OpAdd, dwOut[2], dwOut[3])
	sum := g.OpNode(ir.OpAdd, s01, s23)
	g.Output("pool_stat", g.OpNode(ir.OpLshr, sum, g.Const(2)))

	// Weight-stationary streams for the next block.
	passthrough(g, "wstream", 2)

	return &App{
		Name:         "mobilenet",
		Domain:       MachineLearning,
		Description:  "MobileNet block: depthwise 3x3 + pointwise 1x1 with ReLU6",
		Graph:        g,
		Unroll:       dwCh,
		TotalOutputs: 56 * 56 * 32,
		Seen:         true,
	}
}
