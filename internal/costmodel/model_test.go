package costmodel

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/wire"
)

// lcg is a tiny deterministic generator for synthetic feature vectors —
// test inputs must not depend on math/rand's global state.
type lcg struct{ s uint64 }

func (l *lcg) next() float64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return float64(l.s>>11) / float64(1<<53)
}

// synthSamples builds n samples whose labels are a known function of the
// features: area = linear combo, routability = step function.
func synthSamples(n int, seed uint64) []Sample {
	r := &lcg{s: seed}
	nf := NumFeatures()
	out := make([]Sample, n)
	for i := range out {
		f := make([]float64, nf)
		for j := range f {
			f[j] = r.next() * 10
		}
		s := Sample{Features: f}
		s.Labels[TargetArea] = 1.0 + 0.05*f[0] - 0.02*f[3] + 0.01*f[7]
		s.Labels[TargetEnergy] = 1.2 + 0.03*f[1]
		s.Labels[TargetRuntime] = 1.0 + 0.01*f[2]
		if f[5] > 5 {
			s.Labels[TargetRoutability] = 0.2
		} else {
			s.Labels[TargetRoutability] = 1.0
		}
		out[i] = s
	}
	return out
}

func TestTrainRecoversLinearFunction(t *testing.T) {
	samples := synthSamples(200, 1)
	m, err := Train(context.Background(), samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:50] {
		got := m.Predict(s.Features).AreaRatio
		if math.Abs(got-s.Labels[TargetArea]) > 0.02 {
			t.Fatalf("linear target not recovered: got %.4f want %.4f", got, s.Labels[TargetArea])
		}
	}
}

func TestTrainIsDeterministic(t *testing.T) {
	samples := synthSamples(120, 3)
	var prev []byte
	for i := 0; i < 3; i++ {
		m, err := Train(context.Background(), samples, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		enc := m.Encode()
		if prev != nil && !bytes.Equal(enc, prev) {
			t.Fatalf("run %d produced different model bytes", i)
		}
		prev = enc
	}
}

func TestModelCodecRoundTrip(t *testing.T) {
	samples := synthSamples(80, 4)
	m, err := Train(context.Background(), samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	enc := m.Encode()
	got, err := DecodeModel(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("decode/encode round trip is not byte-identical")
	}
	for _, s := range samples[:10] {
		a, b := m.Predict(s.Features), got.Predict(s.Features)
		if a != b {
			t.Fatalf("decoded model predicts differently: %+v vs %+v", a, b)
		}
	}
	if _, err := DecodeModel(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated model decoded without error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeModel(bad); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

func TestSampleCodecRoundTrip(t *testing.T) {
	s := synthSamples(1, 5)[0]
	enc := s.Encode()
	got, err := DecodeSample(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("sample round trip is not byte-identical")
	}
	if _, err := DecodeSample(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated sample decoded without error")
	}
}

func TestPredictClamps(t *testing.T) {
	samples := synthSamples(60, 6)
	m, err := Train(context.Background(), samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A wildly out-of-distribution point must stay inside the clamps.
	far := make([]float64, NumFeatures())
	for j := range far {
		far[j] = 1e9
	}
	p := m.Predict(far)
	for _, v := range []float64{p.AreaRatio, p.EnergyRatio, p.RuntimeRatio} {
		if v < minRatio || v > maxRatio {
			t.Fatalf("ratio prediction %v escaped clamp [%v, %v]", v, minRatio, maxRatio)
		}
	}
	if p.Routability < 0 || p.Routability > 1 {
		t.Fatalf("routability %v escaped [0, 1]", p.Routability)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(context.Background(), nil, TrainOptions{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := []Sample{{Features: []float64{1, 2, 3}}}
	if _, err := Train(context.Background(), bad, TrainOptions{}); err == nil {
		t.Fatal("wrong feature count accepted")
	}
}

func TestImportancesSumToOneAndSorted(t *testing.T) {
	samples := synthSamples(150, 7)
	m, err := Train(context.Background(), samples, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	imps := m.Importances()
	if len(imps) != NumFeatures() {
		t.Fatalf("got %d importances, want %d", len(imps), NumFeatures())
	}
	sum := 0.0
	for i, im := range imps {
		sum += im.Weight
		if i > 0 && im.Weight > imps[i-1].Weight {
			t.Fatal("importances not sorted descending")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v, want 1", sum)
	}
	// f[0] has the largest true coefficient on area; it should rank highly.
	top := map[string]bool{}
	for _, im := range imps[:8] {
		top[im.Name] = true
	}
	if !top[FeatureNames()[0]] {
		t.Fatalf("dominant feature %q not in top importances %v", FeatureNames()[0], imps[:8])
	}
}

// TestDecodeModelRejectsV1: a payload of the codec version that still
// carried a boosted-stump section per target is refused, not misread
// as the current layout.
func TestDecodeModelRejectsV1(t *testing.T) {
	m, err := Train(context.Background(), synthSamples(40, 8), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The version-1 layout: the same header and weights, plus an empty
	// stump list after each target's weights.
	e := &wire.Enc{Buf: []byte(modelMagic)}
	e.Uvarint(1)
	e.Uvarint(uint64(m.Schema))
	e.Uvarint(uint64(m.SampleCount))
	e.Uvarint(uint64(len(m.Names)))
	for _, n := range m.Names {
		e.Str(n)
	}
	encodeFloats(e, m.Mean)
	encodeFloats(e, m.Scale)
	for t := range m.Targets {
		e.Float64(m.Targets[t].Intercept)
		encodeFloats(e, m.Targets[t].Weights)
		e.Uvarint(0)
	}
	_, err = DecodeModel(e.Buf)
	if err == nil || !strings.Contains(err.Error(), "codec version 1") {
		t.Fatalf("version-1 model: got error %v, want a codec version refusal", err)
	}
}
