package store

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/wire"
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

// pickCodes is the canonical codes of SelectPatterns(a, k), in pick
// order: what the selection kind stores.
func pickCodes(a *core.Analysis, k int) []string {
	var codes []string
	for _, r := range core.SelectPatterns(a, k) {
		codes = append(codes, r.Pattern.Code)
	}
	return codes
}

func TestSelectionRoundTrip(t *testing.T) {
	_, _, a, _, _ := pipelineFixtures(t)
	for k := 0; k <= 4; k++ {
		codes := pickCodes(a, k)
		dec, err := DecodeSelection(EncodeSelection(codes))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dec, codes) {
			t.Fatalf("k=%d: selection %q decoded as %q", k, codes, dec)
		}
	}
	for _, bad := range [][]byte{{}, {2, 1, 'a'}, {1, 5, 'a'}, {0, 0}} {
		if _, err := DecodeSelection(bad); err == nil {
			t.Errorf("undecodable selection %q decoded without error", bad)
		}
	}
}

func TestAnalysisRoundTrip(t *testing.T) {
	_, _, a, _, _ := pipelineFixtures(t)
	dec, err := DecodeAnalysis(EncodeAnalysis(a))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture already selected patterns from a; that lazily built
	// selection order is derived state and not encoded, so compare the
	// encoded fields.
	if want := (&core.Analysis{View: a.View, Ranked: a.Ranked}); !reflect.DeepEqual(want, dec) {
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

// TestVariantLazyDecode: the lazy load yields the rule set the full
// decode does, builds it once however many callers ask, re-encodes to
// the stored bytes, and checks the rule tail at load without a single
// allocation.
func TestVariantLazyDecode(t *testing.T) {
	fw, _, _, v, _ := pipelineFixtures(t)
	data := EncodeVariant(v)
	builds := 0
	lazy, err := DecodeVariantLazy(data, fw.Tech, func() { builds++ })
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Rules != nil || builds != 0 {
		t.Fatal("the lazy load built the rule set")
	}
	if !reflect.DeepEqual(lazy.Spec, v.Spec) || !reflect.DeepEqual(lazy.Pipelined, v.Pipelined) ||
		lazy.Name != v.Name || lazy.Baseline != v.Baseline {
		t.Fatal("the lazy load's head differs from the original")
	}
	if !reflect.DeepEqual(lazy.RuleSet(), v.Rules) {
		t.Fatal("the lazily built rule set differs from the original")
	}
	if lazy.RuleSet() != lazy.RuleSet() || builds != 1 {
		t.Fatalf("rule set built %d times; want once", builds)
	}
	if string(EncodeVariant(lazy)) != string(data) {
		t.Fatal("the lazy variant re-encodes differently")
	}

	d := wire.NewDec(data)
	if _, _, _, err := decodeVariantHead(d); err != nil {
		t.Fatal(err)
	}
	tail := d.Rest()
	if n := testing.AllocsPerRun(20, func() {
		d := wire.NewDec(tail)
		ruleReader{d: d}.ruleSet(v.Spec)
		if d.Finish() != nil {
			t.Fatal("the walk rejected a valid tail")
		}
	}); n != 0 {
		t.Fatalf("the rule-tail walk allocates %.0f times", n)
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
	// Only the registry's own app is hashed once; a copy is hashed anew.
	c := *app
	if AppHash(&c) != ah {
		t.Fatal("a copy of a registry app hashes differently")
	}
	c.Unroll++
	if AppHash(&c) == ah {
		t.Fatal("a changed copy of a registry app took the registry app's hash")
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
	if resultKey(ah, vk, fw, true, true, cgra.PlacerRevision+1) == rk {
		t.Fatal("place-and-route result key ignores the placer revision")
	}
	if resultKey(ah, vk, fw, false, true, cgra.PlacerRevision+1) != ResultKey(ah, vk, fw, false, true) {
		t.Fatal("post-mapping result key depends on the placer revision")
	}
}
