package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// TestEvaluateConstantOutputKernel: a kernel whose output ir.Optimize
// folds to a constant evaluates through mapping, place-and-route and the
// bitstream on the baseline and on a specialized PE, and the routed
// design simulates to the kernel's values — alone, and beside an
// ordinary output.
func TestEvaluateConstantOutputKernel(t *testing.T) {
	for _, src := range []string{
		"input x0\nt0 = x0 - x0\nout y0 = t0 + 5\n",
		"input x0, x1, x2\nt0 = x0 - x0\nout y0 = t0 + 5\nout y1 = (((x0 * 3 + x1) * 5 + x2) * 7 + x1) * 9 + x2\n",
	} {
		g, err := frontend.Compile("constout", src)
		if err != nil {
			t.Fatal(err)
		}
		app := &apps.App{Name: "constout", Graph: ir.Optimize(g), Unroll: 1, TotalOutputs: 1 << 10}
		ctx := context.Background()
		fw := New()
		base, err := fw.BaselinePE(ctx)
		if err != nil {
			t.Fatal(err)
		}
		variants := []*PEVariant{base}
		an, err := fw.Analyze(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Ranked) > 0 {
			v, err := fw.GeneratePE(ctx, "constout_pe", app.UsedOps(), SelectPatterns(an, 2))
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, v)
		}
		for _, v := range variants {
			r, err := fw.Evaluate(ctx, app, v, FullEval)
			if err != nil {
				t.Fatalf("%q on %s: %v", src, v.Name, err)
			}
			if r.Routing == nil {
				t.Fatalf("%q on %s: not routed (%s)", src, v.Name, r.DegradedReason)
			}
			t.Logf("%s: %d PEs, latency %d", v.Name, r.NumPEs, r.LatencyCyc)
			bs, err := cgra.GenerateBitstream(r.Routing)
			if err != nil {
				t.Fatal(err)
			}
			if err := bs.VerifyAgainst(r.Routing); err != nil {
				t.Fatal(err)
			}
			in := map[string]uint16{"x0": 1234, "x1": 77, "x2": 9}
			want, err := app.Graph.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			streams := map[string][]uint16{}
			for k, x := range in {
				streams[k] = []uint16{x}
			}
			cycles := r.LatencyCyc + 4
			got, err := cgra.Simulate(ctx, r.Balanced, r.PELatency, streams, cycles)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if tr := got[name]; len(tr) != cycles || tr[cycles-1] != w {
					t.Errorf("%q on %s: output %s settles to %v, want %d", src, v.Name, name, tr, w)
				}
			}
		}
	}
}
