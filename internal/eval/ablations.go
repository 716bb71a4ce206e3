package eval

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mis"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
)

// Ablations runs two of the design-choice studies DESIGN.md Section 4
// calls out, MIS vs frequency ranking and the FIFO cutoff, and reports
// them as one table; the root benchmark harness computes the others.
func (h *Harness) Ablations(ctx context.Context) (*Table, error) {
	ctx, span := obs.StartSpan(ctx, "ablations")
	defer span.End()
	t := &Table{
		ID:      "Ablations",
		Title:   "Design-choice studies (DESIGN.md Section 4)",
		Headers: []string{"Ablation", "Configuration", "Result"},
	}
	app := apps.Camera()

	// 1. MIS-guided vs frequency-guided subgraph ranking. Both variants
	// resolve through the singleflight variant cache so the prefetch
	// below and the serial assembly share one build each.
	misVariant := func() (*core.PEVariant, error) {
		return h.Variant("abl_mis", func(ctx context.Context) (*core.PEVariant, error) {
			return h.FW.GenerateTopPE(ctx, h.GenMemo(), "abl_mis", app.UsedOps(), h.Analysis(app), 1)
		})
	}
	freqVariant := func() (*core.PEVariant, error) {
		return h.Variant("abl_freq", func(ctx context.Context) (*core.PEVariant, error) {
			byFreq := append([]mis.Ranked(nil), h.Analysis(app).Ranked...)
			mis.SortByFrequency(byFreq)
			pick := 0
			for pick < len(byFreq) {
				if _, err := rewrite.PatternFromMined(byFreq[pick].Pattern.Graph, "probe"); err == nil {
					break
				}
				pick++
			}
			return h.FW.GeneratePE(ctx, "abl_freq", app.UsedOps(), byFreq[pick:pick+1])
		})
	}
	if err := h.prefetch(ctx, []evalCell{
		{app, misVariant, false, true},
		{app, freqVariant, false, true},
		{apps.ResNet(), h.Baseline, false, true},
	}); err != nil {
		return nil, err
	}
	vMIS, err := misVariant()
	if err != nil {
		return nil, err
	}
	rMIS, err := h.Evaluate(ctx, app, vMIS, false, true)
	if err != nil {
		return nil, err
	}
	vFreq, err := freqVariant()
	if err != nil {
		return nil, err
	}
	rFreq, err := h.Evaluate(ctx, app, vFreq, false, true)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"subgraph ranking", "MIS + absorbability (Section 3.2)", fmt.Sprintf("camera maps to %d PEs", rMIS.NumPEs)},
		[]string{"subgraph ranking", "raw occurrence frequency", fmt.Sprintf("camera maps to %d PEs", rFreq.NumPEs)},
	)

	// 2. FIFO cutoff sweep on ResNet: the sweep points are independent,
	// so they run on the worker pool into fixed slots.
	base, err := h.Baseline()
	if err != nil {
		return nil, err
	}
	rb, err := h.Evaluate(ctx, apps.ResNet(), base, false, true)
	if err != nil {
		return nil, err
	}
	mapped := rb.Mapped
	if mapped == nil {
		// A persistent-cache hit carries only the Result scalars, not the
		// mapping artifact. Remapping is deterministic and cheap next to
		// the mining/merging the cache saved.
		mapped, err = rewrite.MapApp(apps.ResNet().Graph, base.RuleSet(), apps.ResNet().Name+"@"+base.Name)
		if err != nil {
			return nil, err
		}
	}
	cutoffs := []int{1, 2, 4, 8}
	reports := make([]pipeline.BalanceReport, len(cutoffs))
	jobs := make([]func() error, len(cutoffs))
	for i, cutoff := range cutoffs {
		i, cutoff := i, cutoff
		jobs[i] = func() error {
			_, reports[i] = pipeline.BalanceApp(mapped, pipeline.AppOptions{PELatency: 2, FIFOCutoff: cutoff})
			return nil
		}
	}
	if err := h.parallel(ctx, jobs); err != nil {
		return nil, err
	}
	for i, cutoff := range cutoffs {
		t.Rows = append(t.Rows, []string{
			"RF FIFO cutoff", fmt.Sprintf("chains > %d become FIFOs", cutoff),
			fmt.Sprintf("%d regs + %d FIFOs", reports[i].RegsInserted, reports[i].FIFOsInserted),
		})
	}
	return t, nil
}
