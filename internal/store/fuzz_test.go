package store

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/tech"
	"repro/internal/wire"
)

// FuzzDecode feeds arbitrary payloads to every decoder of a persisted
// value kind. Each call must return a value or an error: a corrupt
// entry that slipped past the envelope checksum is a cache miss, never
// a panic or an allocation sized by a garbage count. The lazy variant
// load must accept exactly what DecodeVariant accepts and build the
// same rule set. The corpus under testdata/fuzz/FuzzDecode holds inputs
// that once crashed a decoder, and a variant whose rule tail is cut
// short (variant-truncated-rule-tail).
func FuzzDecode(f *testing.F) {
	fw, _, a, v, r := pipelineFixtures(f)
	// Two of harris's 264 ranked patterns: the whole analysis encodes to
	// 61 KB at about 1 ms an exec; this one is 5 KB and still walks the
	// view, patterns, embeddings and occurrences.
	f.Add(EncodeAnalysis(&core.Analysis{View: a.View, Ranked: a.Ranked[:2]}))
	f.Add(EncodeVariant(v))
	f.Add(EncodeResult(r))
	f.Add(EncodeSelection(pickCodes(a, 2)))
	f.Add(trainedModel(f).Encode())
	f.Add(pinnedSample().Encode())
	f.Add(embeddingsAnalysis(1<<32, 1<<32))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeAnalysis(data)
		full, ferr := DecodeVariant(data, fw.Tech)
		lazy, lerr := DecodeVariantLazy(data, fw.Tech, nil)
		if (ferr == nil) != (lerr == nil) {
			t.Fatalf("DecodeVariant error %v, lazy load error %v", ferr, lerr)
		}
		if ferr == nil && !reflect.DeepEqual(full.Rules, lazy.RuleSet()) {
			t.Fatal("the lazily built rule set differs from DecodeVariant's")
		}
		DecodeResult(data)
		DecodeSelection(data)
		costmodel.DecodeModel(data)
		costmodel.DecodeSample(data)
	})
}

func trainedModel(tb testing.TB) *costmodel.Model {
	tb.Helper()
	samples := make([]costmodel.Sample, 24)
	for i := range samples {
		s := &samples[i]
		s.Features = make([]float64, costmodel.NumFeatures())
		for j := range s.Features {
			s.Features[j] = float64((i*7+j*3)%11) / 4
		}
		s.Labels = [costmodel.NumTargets]float64{1 + s.Features[0]/10, 1.2, 0.9 + s.Features[1]/20, float64(i % 2)}
	}
	m, err := costmodel.Train(context.Background(), samples, costmodel.TrainOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// embeddingsAnalysis is an analysis payload whose one pattern claims n
// embeddings of k positions and carries no embedding elements.
func embeddingsAnalysis(k, n uint64) []byte {
	e := &wire.Enc{}
	e.Len(0, true)  // view: nil graph
	e.Len(1, false) // one ranked pattern
	e.Len(0, true)  // pattern graph
	e.Str("")       // code
	e.Uvarint(k)
	e.Uvarint(n)
	e.Int(1)       // support
	e.Len(0, true) // occurrences
	e.Int(0)       // MIS size
	e.Len(0, true) // independent
	e.Bool(false)  // exact
	return e.Buf
}

// TestDecodeRejectsBadCounts pins inputs that once got through the
// decoders: a graph node count far beyond the payload (the decoder
// sized three slices from it and the process died out of memory), an
// embedding list whose element count k*n overflows uint64 to zero (it
// decoded, then At(0, 0) panicked), one with zero positions but 2^40
// embeddings (Len() unbounded by the payload), and a datapath wire to
// a unit that does not exist (the spec rebuild indexed by it).
func TestDecodeRejectsBadCounts(t *testing.T) {
	if _, err := DecodeAnalysis([]byte("\x8b\x88\x9e\xc2k\xa1\xd7")); err == nil {
		t.Fatal("graph node count beyond the payload decoded without error")
	}
	if _, err := DecodeAnalysis(embeddingsAnalysis(1<<32, 1<<32)); err == nil {
		t.Fatal("overflowing embedding count decoded without error")
	}
	if _, err := DecodeAnalysis(embeddingsAnalysis(0, 1<<40)); err == nil {
		t.Fatal("embeddings without positions decoded without error")
	}
	if _, err := DecodeVariant([]byte("\x00\x00\x01\x02\x02\x04\x00\x00\x00\x00"), tech.Default()); err == nil {
		t.Fatal("datapath wire endpoint out of range decoded without error")
	}
}
