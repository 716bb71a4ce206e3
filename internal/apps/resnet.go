package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// ResNet returns one residual-network layer tile: a 3x3 convolution over
// one input-channel slice plus a 3x1 tap of a second slice, partial-sum
// accumulation (channel reduction happens across invocations), per-channel
// bias, requantization, ReLU, and the residual add. Four output channels
// are computed in parallel.
func ResNet() *App { return resNet() }

var resNet = sync.OnceValue(buildResNet)

func buildResNet() *App {
	g := ir.NewGraph("resnet")
	const outCh = 4

	// Input feature map window (3x3) and a second channel slice (3x1).
	ifm, _ := window(g, "ifmap", 3, 3)
	ifm2, _ := window(g, "ifmap2", 3, 1)
	// The residual connection is buffered in memory tiles while the
	// convolution pipeline catches up (20 tiles of skew storage).
	resid := padMem(g, g.Input("resid"), 20)

	flat := []ir.NodeRef{
		ifm[0][0], ifm[0][1], ifm[0][2],
		ifm[1][0], ifm[1][1], ifm[1][2],
		ifm[2][0], ifm[2][1], ifm[2][2],
	}
	col2 := []ir.NodeRef{ifm2[0][0], ifm2[1][0], ifm2[2][0]}

	for oc := 0; oc < outCh; oc++ {
		// Quantized weights differ per output channel.
		w := make([]uint16, 9)
		for i := range w {
			w[i] = uint16(3 + 2*oc + i)
		}
		conv := macTree(g, flat, w)
		w2 := []uint16{uint16(5 + oc), uint16(7 + oc), uint16(2 + oc)}
		conv2 := macTree(g, col2, w2)
		acc := g.OpNode(ir.OpAdd, conv, conv2)

		// Partial sums stream in from the previous channel pass.
		psum := g.Input(fmt.Sprintf("psum%d", oc))
		acc = g.OpNode(ir.OpAdd, acc, psum)
		// Bias, per-channel requantization scale, round + shift, clamp.
		biased := g.OpNode(ir.OpAdd, acc, g.Const(uint16(100+oc)))
		scaled := g.OpNode(ir.OpMul, biased, g.Const(uint16(19+oc)))
		rounded := g.OpNode(ir.OpAdd, scaled, g.Const(16))
		quant := g.OpNode(ir.OpAshr, rounded, g.Const(5))
		clamped := g.OpNode(ir.OpUMin, quant, g.Const(255))
		// ReLU.
		relu := g.OpNode(ir.OpSMax, clamped, g.Const(0))
		// Residual connection and final activation, saturated to 8 bits.
		res := g.OpNode(ir.OpAdd, relu, resid)
		act := g.OpNode(ir.OpSMax, res, g.Const(0))
		out := g.OpNode(ir.OpUMin, act, g.Const(255))
		g.Output(fmt.Sprintf("ofmap%d", oc), out)
	}

	return &App{
		Name:         "resnet",
		Domain:       MachineLearning,
		Description:  "Residual neural network layer (3x3 conv + residual)",
		Graph:        g,
		Unroll:       outCh,
		TotalOutputs: 56 * 56 * 64, // one ResNet stage worth of outputs
		Seen:         true,
	}
}
