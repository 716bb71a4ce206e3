package store

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// The codecs must round-trip *exactly*: downstream algorithms (occurrence
// dedup, MIS ranking, pattern selection, instruction selection) are
// order-sensitive, so a decoded value that is merely equivalent — same
// sets, different order — would change published numbers. These tests
// push real pipeline artifacts through encode/decode and require deep
// equality.

func pipelineFixtures(t testing.TB) (*core.Framework, *apps.App, *core.Analysis, *core.PEVariant, *core.Result) {
	t.Helper()
	fw := core.New()
	fw.MineWorkers = 1
	app := apps.Harris()
	a, err := fw.Analyze(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fw.GeneratePE(context.Background(), "codec_test_pe", app.UsedOps(), core.SelectPatterns(a, 2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fw.Evaluate(context.Background(), app, v, core.PostMapping)
	if err != nil {
		t.Fatal(err)
	}
	return fw, app, a, v, r
}

func TestAnalysisRoundTrip(t *testing.T) {
	_, _, a, _, _ := pipelineFixtures(t)
	dec, err := DecodeAnalysis(EncodeAnalysis(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, dec) {
		t.Fatal("analysis did not round-trip exactly")
	}
	// Re-encoding the decoded value must be byte-identical (canonical
	// encoding — no map-order leakage).
	if string(EncodeAnalysis(dec)) != string(EncodeAnalysis(a)) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestVariantRoundTrip(t *testing.T) {
	fw, _, _, v, _ := pipelineFixtures(t)
	dec, err := DecodeVariant(EncodeVariant(v), fw.Tech)
	if err != nil {
		t.Fatal(err)
	}
	// Spec and Pipelined are rebuilt (not stored); the rebuild is
	// deterministic, so the whole variant must still compare deep-equal.
	if !reflect.DeepEqual(v, dec) {
		t.Fatal("variant did not round-trip exactly")
	}
	if string(EncodeVariant(dec)) != string(EncodeVariant(v)) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestResultRoundTrip(t *testing.T) {
	_, _, _, _, r := pipelineFixtures(t)
	dec, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	// The artifacts are dropped by design; everything else must survive.
	want := *r
	want.Mapped, want.Balanced, want.Routing = nil, nil, nil
	if !reflect.DeepEqual(&want, dec) {
		t.Fatalf("result did not round-trip exactly:\nwant %+v\ngot  %+v", &want, dec)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	_, _, a, _, _ := pipelineFixtures(t)
	data := EncodeAnalysis(a)
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := DecodeAnalysis(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	if _, err := DecodeAnalysis(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestKeySensitivity(t *testing.T) {
	fw := core.New()
	app := apps.Camera()
	ah := AppHash(app)
	base := AnalysisKey(ah, fw)

	fw2 := core.New()
	fw2.MinSupport = 7
	if AnalysisKey(ah, fw2) == base {
		t.Fatal("analysis key ignores MinSupport")
	}
	fw3 := core.New()
	fw3.MaxPatternNodes = 5
	if AnalysisKey(ah, fw3) == base {
		t.Fatal("analysis key ignores MaxPatternNodes")
	}
	if AppHash(apps.Harris()) == ah {
		t.Fatal("app hash ignores the app")
	}

	reg := RegistryHash()
	vk := VariantKey("pe", reg, fw)
	rk := ResultKey(ah, vk, fw, true, true)
	if ResultKey(ah, vk, fw, false, true) == rk {
		t.Fatal("result key ignores the evaluation level")
	}
	fw4 := core.New()
	fw4.PlaceSeed = 99
	if ResultKey(ah, vk, fw4, true, true) == rk {
		t.Fatal("result key ignores the placement seed")
	}
	fw5 := core.New()
	fw5.Fabric.W = 16
	if ResultKey(ah, vk, fw5, true, true) == rk {
		t.Fatal("result key ignores the fabric size")
	}
}
