package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Gaussian returns a separable 3x3 binomial blur (kernel [1 2 1] in both
// dimensions, normalized by 16), unrolled 10x. The blur itself is cheap,
// so the workload is I/O-bound: the paper's Table 3 shows gaussian using
// more I/O tiles (42) than any other application while needing the fewest
// memory tiles (14); auxiliary passthrough planes model that footprint.
func Gaussian() *App { return gaussian() }

var gaussian = sync.OnceValue(buildGaussian)

func buildGaussian() *App {
	g := ir.NewGraph("gaussian")
	const unroll = 10

	// 3 x (unroll+2) window via 2 line buffers and register chains.
	taps, last := window(g, "luma", 3, unroll+2)

	// Shared horizontal pass: h[r][u] = t0 + 2*t1 + t2 for each row and
	// each output column.
	h := make([][]ir.NodeRef, 3)
	for r := 0; r < 3; r++ {
		h[r] = make([]ir.NodeRef, unroll)
		for u := 0; u < unroll; u++ {
			mid := g.OpNode(ir.OpShl, taps[r][u+1], g.Const(1))
			h[r][u] = g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, taps[r][u], mid), taps[r][u+2])
		}
	}

	// Vertical pass and normalization per output pixel.
	for u := 0; u < unroll; u++ {
		mid := g.OpNode(ir.OpShl, h[1][u], g.Const(1))
		v := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, h[0][u], mid), h[2][u])
		norm := g.OpNode(ir.OpLshr, v, g.Const(4))
		g.Output(fmt.Sprintf("out%d", u), g.OpNode(ir.OpUMin, norm, g.Const(255)))
	}

	// Line-buffer double-buffering beyond the 2 in-window buffers.
	g.Output("aux_state", padMem(g, last, 12))

	// Chroma planes moved through the fabric unmodified while luma blurs.
	passthrough(g, "chroma", 15)

	return &App{
		Name:         "gaussian",
		Domain:       ImageProcessing,
		Description:  "Blurs an image with a separable binomial kernel",
		Graph:        g,
		Unroll:       unroll,
		TotalOutputs: fullHD,
		Seen:         true,
	}
}
