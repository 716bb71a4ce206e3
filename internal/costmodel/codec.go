package costmodel

import (
	"fmt"

	"repro/internal/wire"
)

// Deterministic binary codec for models and training samples. The
// encoding is a pure function of the value (fixed field order, float64
// bit patterns, uvarint ints and lengths — internal/wire), so
// byte-identical models are exactly the models with identical weights —
// the determinism tests compare encoded bytes directly.

// Models and samples carry their own codec versions, so a change to the
// model layout refuses older models (never misreads them) without
// orphaning the stored samples.
const (
	modelMagic  = "APXM"
	sampleMagic = "APXS"
	modelVer    = 2
	sampleVer   = 1
)

func encodeFloats(e *wire.Enc, vs []float64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Float64(v)
	}
}

func decodeFloats(d *wire.Dec) []float64 {
	vs := make([]float64, d.Count())
	for i := range vs {
		vs[i] = d.Float64()
	}
	return vs
}

// openMagic checks the magic prefix and the codec version and returns
// a decoder positioned after them.
func openMagic(data []byte, magic, what string, ver uint64) (*wire.Dec, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("costmodel: decode: bad %s magic", what)
	}
	d := wire.NewDec(data[len(magic):])
	if v := d.Uvarint(); v != ver {
		return nil, fmt.Errorf("costmodel: decode: %s codec version %d, want %d", what, v, ver)
	}
	return d, nil
}

// Encode serializes the model deterministically.
func (m *Model) Encode() []byte {
	e := &wire.Enc{Buf: []byte(modelMagic)}
	e.Uvarint(modelVer)
	e.Uvarint(uint64(m.Schema))
	e.Uvarint(uint64(m.SampleCount))
	e.Uvarint(uint64(len(m.Names)))
	for _, n := range m.Names {
		e.Str(n)
	}
	encodeFloats(e, m.Mean)
	encodeFloats(e, m.Scale)
	for t := 0; t < NumTargets; t++ {
		tm := &m.Targets[t]
		e.Float64(tm.Intercept)
		encodeFloats(e, tm.Weights)
	}
	return e.Buf
}

// DecodeModel parses a model encoded by Encode. A schema mismatch with
// the running binary is an error: a model trained on a different
// feature layout must be retrained, not misread.
func DecodeModel(data []byte) (*Model, error) {
	d, err := openMagic(data, modelMagic, "model", modelVer)
	if err != nil {
		return nil, err
	}
	m := &Model{}
	m.Schema = int(d.Uvarint())
	m.SampleCount = int(d.Uvarint())
	nn := d.Count()
	for i := 0; i < nn; i++ {
		m.Names = append(m.Names, d.Str())
	}
	m.Mean = decodeFloats(d)
	m.Scale = decodeFloats(d)
	for t := 0; t < NumTargets; t++ {
		tm := &m.Targets[t]
		tm.Intercept = d.Float64()
		tm.Weights = decodeFloats(d)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("costmodel: decode model: %w", err)
	}
	if m.Schema != FeatureSchemaVersion {
		return nil, fmt.Errorf("costmodel: model has feature schema %d, binary wants %d",
			m.Schema, FeatureSchemaVersion)
	}
	if len(m.Names) != NumFeatures() || len(m.Mean) != NumFeatures() || len(m.Scale) != NumFeatures() {
		return nil, fmt.Errorf("costmodel: model shape mismatch (%d names)", len(m.Names))
	}
	return m, nil
}

// Encode serializes one training sample deterministically.
func (s *Sample) Encode() []byte {
	e := &wire.Enc{Buf: []byte(sampleMagic)}
	e.Uvarint(sampleVer)
	e.Uvarint(FeatureSchemaVersion)
	encodeFloats(e, s.Features)
	for _, l := range s.Labels {
		e.Float64(l)
	}
	return e.Buf
}

// DecodeSample parses a sample encoded by Sample.Encode. Samples from a
// different feature schema decode to an error — the trainer skips them.
func DecodeSample(data []byte) (*Sample, error) {
	d, err := openMagic(data, sampleMagic, "sample", sampleVer)
	if err != nil {
		return nil, err
	}
	schema := int(d.Uvarint())
	s := &Sample{Features: decodeFloats(d)}
	for t := 0; t < NumTargets; t++ {
		s.Labels[t] = d.Float64()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("costmodel: decode sample: %w", err)
	}
	if schema != FeatureSchemaVersion {
		return nil, fmt.Errorf("costmodel: sample has feature schema %d, binary wants %d",
			schema, FeatureSchemaVersion)
	}
	if len(s.Features) != NumFeatures() {
		return nil, fmt.Errorf("costmodel: sample has %d features, want %d", len(s.Features), NumFeatures())
	}
	return s, nil
}
