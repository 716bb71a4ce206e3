// Package costmodel is the learned PnR cost model behind sweep triage:
// stdlib-only ridge regression, with no tunable hyperparameters, over
// deterministic graph features of a variant's mapped datapath, trained
// on the memoized place-and-route results the persistent store already
// holds. The sweep engine uses it to rank cells by predicted cost and
// spend the expensive PnR oracle only on the predicted-Pareto slice
// plus a seeded exploration band; every pruned cell is filled with the
// model's estimate, tagged Predicted.
//
// Everything here is deterministic by construction: the feature vector
// has a fixed order, training is serial over samples sorted by content
// key, the solve's pivot ties keep the lowest row, and the serialized
// model is a byte-exact function of its training set — so a sweep
// triaged at -j 1 and one at -j 8 train byte-identical models and rank
// cells identically.
package costmodel

import (
	"repro/internal/core"
	"repro/internal/rewrite"
)

// FeatureSchemaVersion names the feature-vector layout. Bump it whenever
// featureNames (or any extraction rule) changes: persisted samples carry
// it, and the trainer skips samples from a different schema, so a layout
// change orphans the old corpus instead of misreading it.
const FeatureSchemaVersion = 1

// opClasses are the hardware-class buckets of the op-mix histogram, in
// fixed feature order (ir.Op.HWClass values).
var opClasses = []string{"addsub", "mul", "abs", "shift", "logic", "minmax", "cmp", "sel", "lut"}

// featureNames is the canonical feature order. Extraction fills exactly
// this vector; the model records it so a schema mismatch is detectable.
var featureNames = func() []string {
	names := []string{
		// Mapped-datapath shape.
		"num_pes", "num_mems", "num_ios", "num_rfs", "num_regs",
		"net_count", "crit_depth", "max_fanout", "mean_fanout", "fanout_ge3",
		"io_degree",
	}
	// Op-mix histogram over the mapped PE rules.
	for _, c := range opClasses {
		names = append(names, "ops_"+c)
	}
	names = append(names,
		"rule_size_mean",
		// PE micro-architecture.
		"pe_stages", "pe_period_ps", "pe_core_area",
		// Analytical post-mapping estimates (the baseline the targets are
		// ratios against — letting the model correct scale-dependent bias).
		"est_area", "est_energy", "est_runtime",
		// Fabric knobs.
		"fabric_w", "fabric_h", "fabric_tiles", "tile_util", "tracks16", "tracks1",
		// Remaining cell axes.
		"seed", "support", "k",
	)
	return names
}()

// FeatureNames returns a copy of the canonical feature order.
func FeatureNames() []string { return append([]string(nil), featureNames...) }

// NumFeatures is the feature-vector length.
func NumFeatures() int { return len(featureNames) }

// Knobs are the per-cell backend knobs folded into the feature vector
// alongside the variant's graph features.
type Knobs struct {
	FabricW, FabricH  int
	Tracks16, Tracks1 int
	Seed              int64
	Support, K        int
}

// Features extracts the deterministic feature vector of one sweep cell
// from its post-mapping evaluation (a PnR:false core.Result whose
// Mapped/Balanced artifacts are populated), the PE variant, and the
// cell's backend knobs. The extraction is a pure function: identical
// inputs produce bit-identical vectors at any worker count.
func Features(post *core.Result, v *core.PEVariant, k Knobs) []float64 {
	x := make([]float64, 0, len(featureNames))

	mapped := post.Balanced
	if mapped == nil {
		mapped = post.Mapped
	}
	nets, depth, maxFan, meanFan, fanGe3, ioDeg := graphShape(mapped)

	x = append(x,
		float64(post.NumPEs), float64(post.NumMems), float64(post.NumIOs),
		float64(post.NumRFs), float64(post.NumRegs),
		float64(nets), float64(depth), float64(maxFan), meanFan, float64(fanGe3),
		ioDeg,
	)

	classCount, ruleSizeMean := opMix(post.Mapped)
	for _, c := range opClasses {
		x = append(x, float64(classCount[c]))
	}
	x = append(x, ruleSizeMean)

	stages := 0
	period := 0.0
	coreArea := 0.0
	if v != nil && v.Pipelined != nil {
		stages = v.Pipelined.Stages
		period = v.Pipelined.PeriodPS
	}
	coreArea = post.PECoreArea
	x = append(x, float64(stages), period, coreArea)

	x = append(x, post.TotalArea, post.TotalEnergy, post.RuntimeMS)

	tiles := k.FabricW * k.FabricH
	util := 0.0
	if tiles > 0 {
		util = float64(post.NumPEs+post.NumMems) / float64(tiles)
	}
	x = append(x,
		float64(k.FabricW), float64(k.FabricH), float64(tiles), util,
		float64(k.Tracks16), float64(k.Tracks1),
		float64(k.Seed), float64(k.Support), float64(k.K),
	)
	return x
}

// graphShape computes the connectivity features of the mapped graph:
// net count (sum of producer edges), critical-path depth in nodes
// (longest path), the fanout distribution, and the mean fanout of the
// input nodes (I/O degree).
func graphShape(m *rewrite.Mapped) (nets, depth, maxFan int, meanFan float64, fanGe3 int, ioDeg float64) {
	if m == nil {
		return 0, 0, 0, 0, 0, 0
	}
	out := make([]int, len(m.Nodes))
	var prods []int
	for i := range m.Nodes {
		prods = m.Nodes[i].AppendProducers(prods[:0])
		for _, p := range prods {
			nets++
			out[p]++
		}
	}
	producing := 0
	for i, d := range out {
		if d > maxFan {
			maxFan = d
		}
		if d >= 3 {
			fanGe3++
		}
		if d > 0 {
			producing++
			meanFan += float64(d)
		}
		if m.Nodes[i].Kind == rewrite.KindInput && d > 0 {
			ioDeg += float64(d)
		}
	}
	if producing > 0 {
		meanFan /= float64(producing)
	}
	if n := countKind(m, rewrite.KindInput); n > 0 {
		ioDeg /= float64(n)
	}
	// Longest path in nodes over the topological order.
	dist := make([]int, len(m.Nodes))
	for _, i := range m.TopoOrder() {
		d := 0
		prods = m.Nodes[i].AppendProducers(prods[:0])
		for _, p := range prods {
			if dist[p] > d {
				d = dist[p]
			}
		}
		dist[i] = d + 1
		if dist[i] > depth {
			depth = dist[i]
		}
	}
	return nets, depth, maxFan, meanFan, fanGe3, ioDeg
}

func countKind(m *rewrite.Mapped, k rewrite.NodeKind) int {
	n := 0
	for i := range m.Nodes {
		if m.Nodes[i].Kind == k {
			n++
		}
	}
	return n
}

// opMix histograms the operations of the mapped PE rules by hardware
// class and returns the mean rule size (compute nodes absorbed per PE).
func opMix(m *rewrite.Mapped) (map[string]int, float64) {
	counts := map[string]int{}
	if m == nil {
		return counts, 0
	}
	pes := 0
	sizes := 0
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.Kind != rewrite.KindPE || n.Rule == nil {
			continue
		}
		pes++
		sizes += n.Rule.Size
		for _, op := range n.Rule.Ops {
			counts[op.HWClass()]++
		}
	}
	mean := 0.0
	if pes > 0 {
		mean = float64(sizes) / float64(pes)
	}
	return counts, mean
}
