package eval

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/store"
)

// TestHarnessHammer pounds one harness from 32 goroutines with
// overlapping Analysis/Variant/Evaluate keys. Atomic counters inside the
// variant builders prove exactly-once construction, and a sync.Map of
// first-seen pointers proves every caller got the identical *object*,
// not merely an equal one.
func TestHarnessHammer(t *testing.T) {
	h := fastHarness()
	members := []*apps.App{apps.Camera(), apps.Harris(), apps.Gaussian()}
	var variantBuilds [3]atomic.Int64
	var firstSeen sync.Map // kind|key -> pointer first observed

	check := func(t *testing.T, kind, key string, ptr any) {
		prev, loaded := firstSeen.LoadOrStore(kind+"|"+key, ptr)
		if loaded && prev != ptr {
			t.Errorf("%s %s: two distinct pointers %p / %p", kind, key, prev, ptr)
		}
	}

	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < 6; c++ {
				app := members[(g+c)%len(members)]
				an := h.Analysis(app)
				check(t, "analysis", app.Name, an)

				vi := (g + c) % len(members)
				vApp := members[vi]
				v, err := h.Variant("hammer_"+vApp.Name, func(ctx context.Context) (*core.PEVariant, error) {
					variantBuilds[vi].Add(1)
					chosen := core.SelectPatterns(h.Analysis(vApp), 1)
					return h.FW.GeneratePE(ctx, "hammer_"+vApp.Name, vApp.UsedOps(), chosen)
				})
				if err != nil {
					t.Errorf("variant %s: %v", vApp.Name, err)
					return
				}
				check(t, "variant", vApp.Name, v)

				r, err := h.Evaluate(context.Background(), vApp, v, false, true)
				if err != nil {
					t.Errorf("evaluate %s: %v", vApp.Name, err)
					return
				}
				check(t, "result", vApp.Name, r)
			}
		}(g)
	}
	wg.Wait()
	for i, m := range members {
		if n := variantBuilds[i].Load(); n != 1 {
			t.Errorf("variant for %s built %d times, want exactly 1", m.Name, n)
		}
	}
}

// TestFailedEvaluationDoesNotPoisonLaterResults is the regression test
// for the old mutable-flag hazard: Framework flags used to be mutated
// for the duration of an Evaluate call and restored afterwards, so an
// evaluation that errored out mid-flight could leave the framework in a
// different mode and silently change every subsequent result. With
// explicit EvalOptions there is no state to restore: a failing
// evaluation must leave the harness producing byte-identical tables.
func TestFailedEvaluationDoesNotPoisonLaterResults(t *testing.T) {
	h := fastHarness()

	// A PE that lacks Mul cannot map an app that multiplies.
	nomul, err := h.FW.GeneratePE(context.Background(), "nomul", []ir.Op{ir.OpAdd}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := ir.NewGraph("needs_mul")
	g.Output("o", g.OpNode(ir.OpMul, g.Input("a"), g.Input("b")))
	bad := &apps.App{Name: "needs_mul", Graph: g, Unroll: 1, TotalOutputs: 1}
	if _, err := h.Evaluate(context.Background(), bad, nomul, true, true); err == nil {
		t.Fatal("expected the unmappable evaluation to fail")
	}

	after, _, err := h.CameraLadder(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := fastHarness().CameraLadder(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if after.Markdown() != fresh.Markdown() {
		t.Errorf("results changed after a failed evaluation:\nafter failure:\n%s\nfresh harness:\n%s",
			after.Markdown(), fresh.Markdown())
	}
}

// TestSuiteDeterministicAcrossWorkers runs the full fast suite serially
// and with 8 workers and requires byte-identical Markdown for every
// table: worker count and completion order must never leak into output.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	serial := fastHarness()
	serial.Workers = 1
	st, err := serial.Suite(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	par := fastHarness()
	par.Workers = 8
	pt, err := par.Suite(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != len(pt) {
		t.Fatalf("table count: serial %d, parallel %d", len(st), len(pt))
	}
	for i := range st {
		if s, p := st[i].Markdown(), pt[i].Markdown(); s != p {
			t.Errorf("%s differs between workers=1 and workers=8:\nserial:\n%s\nparallel:\n%s",
				st[i].ID, s, p)
		}
	}
}

// TestAppsSharedReadOnly: every application constructor returns one
// shared *App, and a full fast suite on eight workers leaves every
// app's fingerprint as it found it. Under -race this also shows that
// no cell writes a shared app while another reads it.
func TestAppsSharedReadOnly(t *testing.T) {
	before := map[string]store.Key{}
	for _, name := range apps.Names() {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := apps.ByName(name); a != b {
			t.Errorf("ByName(%q) built a second app", name)
		}
		before[name] = contentHash(a)
	}
	h := fastHarness()
	h.Workers = 8
	if _, err := h.Suite(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	for _, a := range apps.All() {
		if got := contentHash(a); got != before[a.Name] {
			t.Errorf("%s: app fingerprint moved during the suite: %s -> %s", a.Name, before[a.Name], got)
		}
	}
}

// contentHash fingerprints a's current contents. store.AppHash keeps a
// registry app's first hash, so this hashes a copy of the App, which
// shares a's graph but is not the registry's app.
func contentHash(a *apps.App) store.Key {
	c := *a
	return store.AppHash(&c)
}
