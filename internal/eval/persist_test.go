package eval

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// The persistent store must be invisible in the output: a warm run
// deserializes everything it can, and the resulting tables are required
// to be byte-identical to both the cold run that populated the cache and
// a run with no store attached at all. Anything less — a float that
// round-trips at lower precision, a slice that comes back in a different
// order — would silently change published numbers.

func storedHarness(t *testing.T, dir string) *Harness {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := fastHarness()
	h.SetStore(st)
	return h
}

func suiteMarkdown(t *testing.T, h *Harness) string {
	t.Helper()
	tables, err := h.Suite(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}

func TestPersistWarmSuiteByteIdentical(t *testing.T) {
	dir := t.TempDir()
	plain := suiteMarkdown(t, fastHarness())

	cold := storedHarness(t, dir)
	if got := suiteMarkdown(t, cold); got != plain {
		t.Fatal("cold cached run differs from the store-free run")
	}
	if s := cold.Store().Stats(); s.Puts == 0 {
		t.Fatalf("cold run wrote nothing to the store: %+v", s)
	}

	warm := storedHarness(t, dir)
	if got := suiteMarkdown(t, warm); got != plain {
		t.Fatal("warm cached run differs from the store-free run")
	}
	s := warm.Store().Stats()
	if s.Misses != 0 || s.Hits == 0 {
		t.Fatalf("warm run should hit on every lookup: %+v", s)
	}
	if s.Puts != 0 {
		t.Fatalf("warm run recomputed and re-wrote entries: %+v", s)
	}
}

// corruptEvery flips one payload byte in every cache entry under dir.
func corruptEvery(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".apx") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xFF
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cache entries found to corrupt")
	}
	return n
}

func TestPersistCorruptEntriesRecomputed(t *testing.T) {
	dir := t.TempDir()
	plain := suiteMarkdown(t, fastHarness())
	suiteMarkdown(t, storedHarness(t, dir))

	n := corruptEvery(t, dir)

	h := storedHarness(t, dir)
	if got := suiteMarkdown(t, h); got != plain {
		t.Fatal("run over a fully corrupted cache differs from the store-free run")
	}
	s := h.Store().Stats()
	if s.Corrupt == 0 {
		t.Fatalf("corruption of %d entries went undetected: %+v", n, s)
	}
	if s.Hits != 0 {
		t.Fatalf("a corrupted entry was served as a hit: %+v", s)
	}
	if s.Puts == 0 {
		t.Fatalf("recomputed values were not written back: %+v", s)
	}

	// The rewritten cache must now serve a clean warm run.
	warm := storedHarness(t, dir)
	if got := suiteMarkdown(t, warm); got != plain {
		t.Fatal("warm run after recovery differs from the store-free run")
	}
	if s := warm.Store().Stats(); s.Misses != 0 || s.Corrupt != 0 {
		t.Fatalf("cache not fully healed after recovery: %+v", s)
	}

	// A variant whose head decodes but whose rule tail is cut short, in
	// a sound envelope, is corrupt at load: a warm pass never reads
	// spec_camera's rules, so a check left to the rule build would
	// never run.
	key := store.VariantKey("spec_camera", store.RegistryHash(), warm.FW)
	payload, ok := warm.Store().Get(store.KindVariant, key)
	if !ok {
		t.Fatal("no stored spec_camera variant")
	}
	warm.Store().Put(store.KindVariant, key, payload[:len(payload)-1])
	h = storedHarness(t, dir)
	reg := obs.NewRegistry()
	h.SetObs(&obs.Obs{Metrics: reg})
	if got := suiteMarkdown(t, h); got != plain {
		t.Fatal("run over a truncated rule tail differs from the store-free run")
	}
	for _, name := range []string{"cache.variant.corrupt", "cache.variant.put"} {
		if got := reg.Counter(name).Value(); got != 1 {
			t.Errorf("%s = %d over one truncated rule tail; want 1", name, got)
		}
	}
}

// TestPersistWarmPassDecodesOnlyReadRules: a warm pass loads every
// variant its tables name but builds the rule set of only the one whose
// rules a table reads, baseline's, remapped for the FIFO-cutoff
// ablation; every other cell is a stored result. Its tables are
// byte-identical to the cold pass's.
func TestPersistWarmPassDecodesOnlyReadRules(t *testing.T) {
	dir := t.TempDir()
	cold := suiteMarkdown(t, storedHarness(t, dir))
	warm := storedHarness(t, dir)
	reg := obs.NewRegistry()
	warm.SetObs(&obs.Obs{Metrics: reg})
	if got := suiteMarkdown(t, warm); got != cold {
		t.Fatal("warm pass differs from the cold pass")
	}
	loaded := reg.Counter("cache.variant.hit").Value()
	if loaded < 2 {
		t.Fatalf("warm pass loaded %d variants; the suite uses many", loaded)
	}
	if got := reg.Counter("cache.variant.rules_decoded").Value(); got != 1 {
		t.Fatalf("warm pass built %d of the %d loaded rule sets; want 1 (baseline)", got, loaded)
	}
}

func TestPersistBypassedUnderFaultInjection(t *testing.T) {
	dir := t.TempDir()
	h := storedHarness(t, dir)
	h.Faults = &FaultPlan{} // empty plan: no faults fire, but injection is armed
	if _, _, err := h.CameraLadder(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if s := h.Store().Stats(); s != (store.Stats{}) {
		t.Fatalf("store touched while fault injection was armed: %+v", s)
	}
	if _, entries := h.Store().DiskBytes(); entries != 0 {
		t.Fatalf("store has %d entries after a faults-armed run", entries)
	}
}

// selection names one (app, k) pattern selection.
type selection struct {
	app *apps.App
	k   int
}

// fig10Selections lists the distinct selections Fig. 10 prints:
// camera's ladder (k = 0..3), each other image app's PE Spec (k = 3),
// PE IP (k = 1 per IP app, camera's already in the ladder) and PE ML
// (k = 2 per ML app).
func fig10Selections() []selection {
	var out []selection
	seen := map[selection]bool{}
	add := func(a *apps.App, k int) {
		if s := (selection{a, k}); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for k := 0; k <= 3; k++ {
		add(apps.Camera(), k)
	}
	for _, a := range []*apps.App{apps.Harris(), apps.Gaussian(), apps.Unsharp()} {
		add(a, 3)
	}
	for _, a := range apps.AnalyzedIP() {
		add(a, 1)
	}
	for _, a := range apps.AnalyzedML() {
		add(a, 2)
	}
	return out
}

// TestPersistWarmPassReadsNoAnalysis: Fig. 10 prints the pick codes of
// its selections, which a warm pass reads from their own store entries,
// so it loads no analysis (no analyses memo lookup at all, hence no
// SelectPatterns round either), misses nothing in the store, and hits
// each distinct (app, k) selection once.
func TestPersistWarmPassReadsNoAnalysis(t *testing.T) {
	dir := t.TempDir()
	cold := suiteMarkdown(t, storedHarness(t, dir))
	warm := storedHarness(t, dir)
	reg := obs.NewRegistry()
	warm.SetObs(&obs.Obs{Metrics: reg})
	if got := suiteMarkdown(t, warm); got != cold {
		t.Fatal("warm pass differs from the cold pass")
	}
	if got := reg.Counter("cache.analysis.hit").Value(); got != 0 {
		t.Errorf("warm pass decoded %d analyses; want 0", got)
	}
	if got := warm.MemoStats()["analyses"].Lookups(); got != 0 {
		t.Errorf("warm pass looked up %d analyses; want 0", got)
	}
	if s := warm.Store().Stats(); s.Misses != 0 || s.Puts != 0 {
		t.Errorf("warm pass missed or wrote the store: %+v", s)
	}
	want := int64(len(fig10Selections()))
	if got := reg.Counter("cache.selection.hit").Value(); got != want {
		t.Errorf("warm pass hit %d stored selections; want one per distinct (app, k), %d", got, want)
	}
	if got := warm.MemoStats()["selections"].Misses; got != want {
		t.Errorf("selections memo missed %d times; want %d", got, want)
	}
}

// TestPersistCorruptSelectionsRecomputed: a selection entry that fails
// its envelope checks, or whose sound envelope holds an undecodable
// payload, is recomputed from the (stored) analysis and overwritten,
// with the tables unchanged; the next pass hits every selection again.
func TestPersistCorruptSelectionsRecomputed(t *testing.T) {
	dir := t.TempDir()
	plain := suiteMarkdown(t, storedHarness(t, dir))
	sels := fig10Selections()
	n := int64(len(sels))
	for _, mode := range []string{"envelope", "payload"} {
		h := storedHarness(t, dir)
		if mode == "envelope" {
			sdir := filepath.Join(dir, fmt.Sprintf("v%d", store.SchemaVersion), string(store.KindSelection))
			if got := corruptEvery(t, sdir); got != int(n) {
				t.Fatalf("%d selection entries on disk; want %d", got, n)
			}
		} else {
			for _, s := range sels {
				key := store.SelectionKey(store.AnalysisKey(store.AppHash(s.app), h.FW), s.k)
				h.Store().Put(store.KindSelection, key, []byte{0xff}) // a count cut short
			}
		}
		reg := obs.NewRegistry()
		h.SetObs(&obs.Obs{Metrics: reg})
		if got := suiteMarkdown(t, h); got != plain {
			t.Fatalf("%s: run over corrupt selections differs from the cold run", mode)
		}
		corrupt := reg.Counter("cache.selection.corrupt").Value()
		if mode == "envelope" {
			corrupt = h.Store().Stats().Corrupt
		}
		if corrupt != n {
			t.Errorf("%s: %d corrupt selections counted; want %d", mode, corrupt, n)
		}
		if got := reg.Counter("cache.selection.put").Value(); got != n {
			t.Errorf("%s: %d selections rewritten; want %d", mode, got, n)
		}
		if got := reg.Counter("cache.selection.hit").Value(); got != 0 {
			t.Errorf("%s: %d corrupt selections served as hits", mode, got)
		}

		healed := storedHarness(t, dir)
		reg = obs.NewRegistry()
		healed.SetObs(&obs.Obs{Metrics: reg})
		if got := suiteMarkdown(t, healed); got != plain {
			t.Fatalf("%s: run after recovery differs from the cold run", mode)
		}
		if got := reg.Counter("cache.selection.hit").Value(); got != n {
			t.Errorf("%s: %d selections hit after recovery; want %d", mode, got, n)
		}
	}
}

// TestResultKeyMemoMatchesStore: the harness hashes each variant key
// once and reuses it, and the result keys it builds from the memo are
// byte-identical to store.ResultKey over a freshly hashed variant key
// for every cell of a full suite pass (filled by four workers at once),
// under the pass's framework and under one with other mining options,
// whose keys must differ.
func TestResultKeyMemoMatchesStore(t *testing.T) {
	if testing.Short() {
		t.Skip("full PnR suite skipped in -short mode")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness()
	h.Workers = 4
	h.SetStore(st)
	if _, err := h.Suite(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	other := *h.FW
	other.MinSupport++
	other.MaxPatternNodes++
	cells := 0
	h.results.Each(func(key string, _ *core.Result, err error) {
		if err != nil {
			t.Fatalf("cell %s: %v", key, err)
		}
		f := strings.Split(key, "|")
		app, err := apps.ByName(f[0])
		if err != nil {
			t.Fatal(err)
		}
		pnr, pipe := f[2] == "true", f[3] == "true"
		cells++
		for _, fw := range []*core.Framework{h.FW, &other} {
			want := store.ResultKey(store.AppHash(app), store.VariantKey(f[1], store.RegistryHash(), fw), fw, pnr, pipe)
			if got := h.ResultKey(fw, app, f[1], pnr, pipe); got != want {
				t.Errorf("cell %s, support %d: memoized result key %s, store.ResultKey %s", key, fw.MinSupport, got, want)
			}
		}
		if h.ResultKey(h.FW, app, f[1], pnr, pipe) == h.ResultKey(&other, app, f[1], pnr, pipe) {
			t.Errorf("cell %s: result key ignores the mining options", key)
		}
	})
	if cells != 68 {
		t.Errorf("suite has %d cells, want 68", cells)
	}
}
