package apps

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Laplacian returns one level of a Laplacian pyramid: blur the image with a
// binomial kernel, upsample-interpolate the coarse level, and subtract to
// get the band-pass residual. Not analyzed during PE generation; used in
// the paper's Fig. 13 generalization experiment.
func Laplacian() *App { return laplacian() }

var laplacian = sync.OnceValue(buildLaplacian)

func buildLaplacian() *App {
	g := ir.NewGraph("laplacian")
	const unroll = 4

	taps, last := window(g, "img", 3, unroll+2)

	// Shared horizontal binomial partials.
	h := make([][]ir.NodeRef, 3)
	for r := 0; r < 3; r++ {
		h[r] = make([]ir.NodeRef, unroll)
		for u := 0; u < unroll; u++ {
			mid := g.OpNode(ir.OpShl, taps[r][u+1], g.Const(1))
			h[r][u] = g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, taps[r][u], mid), taps[r][u+2])
		}
	}

	blur := make([]ir.NodeRef, unroll)
	for u := 0; u < unroll; u++ {
		mid := g.OpNode(ir.OpShl, h[1][u], g.Const(1))
		v := g.OpNode(ir.OpAdd, g.OpNode(ir.OpAdd, h[0][u], mid), h[2][u])
		rounded := g.OpNode(ir.OpAdd, v, g.Const(8))
		blur[u] = g.OpNode(ir.OpLshr, rounded, g.Const(4))
	}

	// Upsample interpolation of the coarse level (linear between
	// neighboring blurred samples) and band-pass residual.
	for u := 0; u < unroll; u++ {
		nb := u + 1
		if nb >= unroll {
			nb = u
		}
		up := avg2(g, blur[u], blur[nb])
		center := taps[1][u+1]
		diff := g.OpNode(ir.OpSub, center, up)
		// Bias the residual into unsigned range and clamp.
		biased := g.OpNode(ir.OpAdd, diff, g.Const(128))
		g.Output(fmt.Sprintf("band%d", u), clampU8(g, biased))
		g.Output(fmt.Sprintf("coarse%d", u), blur[u])
	}

	g.Output("aux_state", padMem(g, last, 10))

	return &App{
		Name:         "laplacian",
		Domain:       ImageProcessing,
		Description:  "One Laplacian pyramid level: blur, upsample, band-pass residual",
		Graph:        g,
		Unroll:       unroll,
		TotalOutputs: fullHD,
		Seen:         false,
	}
}
