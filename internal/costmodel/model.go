package costmodel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// Sample is one training example: the feature vector of a cell plus the
// oracle labels, expressed as PnR-result-over-postmap-estimate ratios so
// the targets are dimensionless and transfer across applications of very
// different absolute scale. Routability is the cell's realizability
// grade (1 routed, 0 degraded).
type Sample struct {
	Features []float64
	Labels   [NumTargets]float64
}

// Target indices of Sample.Labels and Prediction.
const (
	TargetArea = iota // TotalArea ratio (PnR / postmap estimate)
	TargetEnergy
	TargetRuntime
	TargetRoutability
	NumTargets
)

// targetNames is the fixed target order.
var targetNames = [NumTargets]string{"area_ratio", "energy_ratio", "runtime_ratio", "routability"}

// Ratio clamps: predictions outside this band are wild extrapolations
// (the PnR overhead over the analytical estimate is bounded in practice)
// and are clipped before use.
const (
	minRatio = 0.25
	maxRatio = 4.0
)

// targetModel is one target's regressor: a ridge-regularized linear
// model over standardized features.
type targetModel struct {
	Intercept float64
	Weights   []float64
}

// Model predicts the PnR outcome of a sweep cell from its features.
type Model struct {
	Schema  int      // FeatureSchemaVersion at training time
	Names   []string // feature order at training time
	Mean    []float64
	Scale   []float64
	Targets [NumTargets]targetModel
	// SampleCount is the training-set size (provenance, not used by
	// prediction).
	SampleCount int
}

// TrainOptions is empty: the model has no tunable hyperparameters.
// The type stays only until a benchmark change stops passing it.
//
// Deprecated: ignored.
type TrainOptions struct{}

// ridgeLambda is the L2 regularization strength of every target's
// solve.
const ridgeLambda = 1.0

// Train fits the model on the given samples. Training is strictly
// serial and deterministic: the caller passes samples in a canonical
// order (the sweep trainer sorts by content key) and identical inputs
// produce a byte-identical serialized model. Observability flows
// through ctx: sample count, per-target MAE, and training time land in
// the costmodel.* metrics when a registry is attached.
func Train(ctx context.Context, samples []Sample, _ TrainOptions) (*Model, error) {
	start := time.Now()
	if len(samples) == 0 {
		return nil, fmt.Errorf("costmodel: no training samples")
	}
	nf := len(samples[0].Features)
	if nf != NumFeatures() {
		return nil, fmt.Errorf("costmodel: sample has %d features, schema %d wants %d",
			nf, FeatureSchemaVersion, NumFeatures())
	}
	for i, s := range samples {
		if len(s.Features) != nf {
			return nil, fmt.Errorf("costmodel: sample %d has %d features, want %d", i, len(s.Features), nf)
		}
	}

	m := &Model{
		Schema:      FeatureSchemaVersion,
		Names:       FeatureNames(),
		SampleCount: len(samples),
	}
	m.Mean, m.Scale = standardize(samples, nf)

	// Standardized design matrix, reused across targets.
	z := make([][]float64, len(samples))
	for i, s := range samples {
		row := make([]float64, nf)
		for j, v := range s.Features {
			row[j] = (v - m.Mean[j]) / m.Scale[j]
		}
		z[i] = row
	}

	for t := 0; t < NumTargets; t++ {
		y := make([]float64, len(samples))
		for i, s := range samples {
			y[i] = s.Labels[t]
		}
		tm, err := fitTarget(z, y)
		if err != nil {
			return nil, fmt.Errorf("costmodel: fit %s: %w", targetNames[t], err)
		}
		m.Targets[t] = tm
	}

	obs.SetGauge(ctx, "costmodel.train.samples", int64(len(samples)))
	for t, acc := range m.Validate(samples) {
		// Basis points keep sub-percent errors visible in integer gauges.
		obs.SetGauge(ctx, "costmodel.train.mae_bp."+targetNames[t], int64(math.Round(acc.MAE*1e4)))
	}
	obs.ObserveSince(ctx, "costmodel.train.us", start)
	return m, nil
}

// standardize computes per-feature mean and scale (stddev, 1 when
// degenerate so constant features stay harmless).
func standardize(samples []Sample, nf int) (mean, scale []float64) {
	mean = make([]float64, nf)
	scale = make([]float64, nf)
	n := float64(len(samples))
	for _, s := range samples {
		for j, v := range s.Features {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for _, s := range samples {
		for j, v := range s.Features {
			d := v - mean[j]
			scale[j] += d * d
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / n)
		if scale[j] < 1e-12 {
			scale[j] = 1
		}
	}
	return mean, scale
}

// fitTarget solves the ridge normal equations for one target.
func fitTarget(z [][]float64, y []float64) (targetModel, error) {
	nf := len(z[0])
	n := len(z)

	// Center the target; the intercept absorbs the mean (features are
	// already centered, so the ridge solve needs no bias column).
	ymean := 0.0
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(n)

	// Normal equations A w = b with A = Z'Z + lambda*I, b = Z'(y - ymean).
	a := make([][]float64, nf)
	for i := range a {
		a[i] = make([]float64, nf)
	}
	b := make([]float64, nf)
	for i := 0; i < n; i++ {
		yc := y[i] - ymean
		zi := z[i]
		for j := 0; j < nf; j++ {
			b[j] += zi[j] * yc
			for k := j; k < nf; k++ {
				a[j][k] += zi[j] * zi[k]
			}
		}
	}
	for j := 0; j < nf; j++ {
		for k := 0; k < j; k++ {
			a[j][k] = a[k][j]
		}
		a[j][j] += ridgeLambda
	}
	w, err := solve(a, b)
	if err != nil {
		return targetModel{}, err
	}
	return targetModel{Intercept: ymean, Weights: w}, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (a, b). Deterministic: pivot selection is by strictly greater absolute
// value, so ties keep the lowest row.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < n; r++ {
			factor := m[r][col] / m[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	w := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := m[i][n]
		for c := i + 1; c < n; c++ {
			v -= m[i][c] * w[c]
		}
		w[i] = v / m[i][i]
	}
	return w, nil
}

// predict evaluates one target on a standardized row.
func (t *targetModel) predict(z []float64) float64 {
	v := t.Intercept
	for j, w := range t.Weights {
		v += w * z[j]
	}
	return v
}

// Prediction is the model's estimate for one cell: multiplicative
// corrections over the analytical post-mapping estimate, plus a
// realizability grade in [0, 1].
type Prediction struct {
	AreaRatio, EnergyRatio, RuntimeRatio float64
	Routability                          float64
}

// Predict evaluates the model on a raw (unstandardized) feature vector.
// Ratio targets are clamped to [0.25, 4] and routability to [0, 1].
func (m *Model) Predict(features []float64) Prediction {
	z := make([]float64, len(features))
	for j, v := range features {
		z[j] = (v - m.Mean[j]) / m.Scale[j]
	}
	clampRatio := func(v float64) float64 { return math.Min(maxRatio, math.Max(minRatio, v)) }
	return Prediction{
		AreaRatio:    clampRatio(m.Targets[TargetArea].predict(z)),
		EnergyRatio:  clampRatio(m.Targets[TargetEnergy].predict(z)),
		RuntimeRatio: clampRatio(m.Targets[TargetRuntime].predict(z)),
		Routability:  math.Min(1, math.Max(0, m.Targets[TargetRoutability].predict(z))),
	}
}

// labels exposes a Prediction in Sample label order.
func (p Prediction) labels() [NumTargets]float64 {
	return [NumTargets]float64{p.AreaRatio, p.EnergyRatio, p.RuntimeRatio, p.Routability}
}

// Accuracy summarizes one target's predicted-vs-actual error over a
// sample set.
type Accuracy struct {
	Target  string  `json:"target"`
	MAE     float64 `json:"mae"`
	P95Abs  float64 `json:"p95_abs_err"`
	MaxAbs  float64 `json:"max_abs_err"`
	MeanPct float64 `json:"mean_rel_err_pct"`
}

// Validate computes per-target accuracy of the model on the given
// samples (typically the training set, or the oracle cells of a sweep).
func (m *Model) Validate(samples []Sample) []Accuracy {
	out := make([]Accuracy, NumTargets)
	if len(samples) == 0 {
		for t := range out {
			out[t].Target = targetNames[t]
		}
		return out
	}
	abs := make([][]float64, NumTargets)
	for _, s := range samples {
		pred := m.Predict(s.Features).labels()
		for t := 0; t < NumTargets; t++ {
			e := math.Abs(pred[t] - s.Labels[t])
			abs[t] = append(abs[t], e)
			out[t].MAE += e
			if s.Labels[t] != 0 {
				out[t].MeanPct += 100 * e / math.Abs(s.Labels[t])
			}
			if e > out[t].MaxAbs {
				out[t].MaxAbs = e
			}
		}
	}
	n := float64(len(samples))
	for t := 0; t < NumTargets; t++ {
		out[t].Target = targetNames[t]
		out[t].MAE /= n
		out[t].MeanPct /= n
		sort.Float64s(abs[t])
		out[t].P95Abs = abs[t][(len(abs[t])*95)/100]
		if (len(abs[t])*95)/100 >= len(abs[t]) {
			out[t].P95Abs = abs[t][len(abs[t])-1]
		}
	}
	return out
}

// Importance is one feature's aggregate weight across targets.
type Importance struct {
	Name   string  `json:"feature"`
	Weight float64 `json:"weight"`
}

// Importances ranks features by the sum over targets of |standardized
// linear weight|, normalized to sum to 1. Sorted descending, ties by
// feature order — deterministic.
func (m *Model) Importances() []Importance {
	raw := make([]float64, len(m.Names))
	for t := 0; t < NumTargets; t++ {
		for j, w := range m.Targets[t].Weights {
			raw[j] += math.Abs(w)
		}
	}
	total := 0.0
	for _, v := range raw {
		total += v
	}
	out := make([]Importance, len(raw))
	for j, v := range raw {
		if total > 0 {
			v /= total
		}
		out[j] = Importance{Name: m.Names[j], Weight: v}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}
