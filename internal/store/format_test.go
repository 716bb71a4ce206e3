package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/costmodel"
)

// formatFile pins the on-disk byte format of every persisted value kind,
// one "name sha256" line each. SchemaVersion (and costmodel's codec
// version) stay put only while these digests hold: a refactor of the
// codecs must reproduce the old bytes exactly, or bump the version and
// replace the lines the failing test prints.
const formatFile = "testdata/format.sha256"

// pinnedModel is a hand-built model, not a trained one, so its bytes do
// not depend on floating-point training arithmetic.
func pinnedModel() *costmodel.Model {
	nf := costmodel.NumFeatures()
	m := &costmodel.Model{
		Schema:      costmodel.FeatureSchemaVersion,
		Names:       costmodel.FeatureNames(),
		Mean:        make([]float64, nf),
		Scale:       make([]float64, nf),
		SampleCount: 42,
	}
	for i := 0; i < nf; i++ {
		m.Mean[i] = float64(i) * 0.5
		m.Scale[i] = 1 + float64(i)/8
	}
	for t := range m.Targets {
		tm := &m.Targets[t]
		tm.Intercept = 1 + 0.25*float64(t)
		tm.Weights = make([]float64, nf)
		for i := range tm.Weights {
			tm.Weights[i] = float64(i-t) / 16
		}
	}
	return m
}

func pinnedSample() *costmodel.Sample {
	s := &costmodel.Sample{Features: make([]float64, costmodel.NumFeatures())}
	for i := range s.Features {
		s.Features[i] = float64(i)*0.75 - 3
	}
	s.Labels = [costmodel.NumTargets]float64{1.1, 0.9, 1.25, 1}
	return s
}

func formatDigests(t *testing.T) map[string]string {
	t.Helper()
	fw, app, a, v, r := pipelineFixtures(t)
	enc := map[string][]byte{
		"analysis":      EncodeAnalysis(a),
		"selection":     EncodeSelection(pickCodes(a, 2)),
		"variant":       EncodeVariant(v),
		"result":        EncodeResult(r),
		"model":         pinnedModel().Encode(),
		"sample":        pinnedSample().Encode(),
		"graph":         a.View.AppendBinary(nil),
		"embeddings":    a.Ranked[0].Pattern.Embeddings.AppendBinary(nil),
		"pattern":       a.Ranked[0].Pattern.Graph.AppendBinary(nil),
		"app_key":       []byte(AppHash(app)),
		"selection_key": []byte(SelectionKey(AnalysisKey(AppHash(app), fw), 2)),
		"result_key":    []byte(ResultKey(AppHash(app), VariantKey(v.Name, RegistryHash(), fw), fw, true, true)),
		"key":           []byte(NewHasher("pin").Str("harris").Int(-3).Int64(1<<40).Ints(1, 2).Bool(true).Bytes([]byte{0, 255}).Key()),
		"envelope":      sealEnvelope("k", []byte("payload")),
	}
	out := map[string]string{}
	for name, b := range enc {
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

func TestFormatPinned(t *testing.T) {
	got := formatDigests(t)
	data, err := os.ReadFile(formatFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d encodings, test computes %d", formatFile, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s encoding changed (pinned %s); new line:\n%s %s", name, want[name], name, sum)
		}
	}
}
