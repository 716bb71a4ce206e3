package eval

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
)

// Fig10 reproduces the paper's Fig. 10: which mined subgraphs form each
// PE variant, and the resulting PE architectures (functional units,
// constants, inputs, muxes, pipeline stages).
func (h *Harness) Fig10(ctx context.Context) (*Table, error) {
	_, span := obs.StartSpan(ctx, "fig10")
	defer span.End()
	t := &Table{
		ID:      "Fig. 10",
		Title:   "Subgraphs merged into each PE variant and resulting architectures",
		Headers: []string{"Variant", "Subgraphs (canonical codes)", "FUs", "Consts", "Inputs", "Muxes", "Stages", "Core area note"},
	}
	addVariant := func(label string, v *core.PEVariant, subgraphs []string) {
		c := v.Spec.DP.Count()
		sg := "—"
		if len(subgraphs) > 0 {
			sg = ""
			for i, s := range subgraphs {
				if i > 0 {
					sg = sg + "; "
				}
				sg += s
			}
		}
		t.Rows = append(t.Rows, []string{
			label, sg, d(c.FUs), d(c.Consts), d(c.Inputs), d(c.Muxes),
			d(v.Pipelined.Stages), fmt.Sprintf("%.0f um^2", v.CoreArea(h.FW.Tech)),
		})
	}

	// Camera ladder PE 1..4.
	camera := apps.Camera()
	for k := 1; k <= 4; k++ {
		v, err := h.LadderPE(camera, k)
		if err != nil {
			return nil, err
		}
		addVariant(fmt.Sprintf("camera PE %d", k), v, h.PickCodes(camera, k-1))
	}
	// PE Spec for the remaining image applications.
	for _, a := range []*apps.App{apps.Harris(), apps.Gaussian(), apps.Unsharp()} {
		v, err := h.SpecializedPE(a)
		if err != nil {
			return nil, err
		}
		addVariant("PE Spec "+a.Name, v, h.PickCodes(a, 3))
	}
	// Domain PEs.
	ip, err := h.PEIP()
	if err != nil {
		return nil, err
	}
	var ipCodes []string
	for _, a := range apps.AnalyzedIP() {
		for _, code := range h.PickCodes(a, 1) {
			ipCodes = append(ipCodes, a.Name+": "+code)
		}
	}
	addVariant("PE IP", ip, ipCodes)

	ml, err := h.PEML()
	if err != nil {
		return nil, err
	}
	var mlCodes []string
	for _, a := range apps.AnalyzedML() {
		for _, code := range h.PickCodes(a, 2) {
			mlCodes = append(mlCodes, a.Name+": "+code)
		}
	}
	addVariant("PE ML", ml, mlCodes)
	return t, nil
}
