package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/rewrite"
)

// trackless returns a framework whose fabric has no routing tracks at
// all: every placement is over-subscribed by construction, so routing
// can never converge no matter how often the ladder reseeds — the
// deterministic way to drive every rung to non-convergence.
func trackless() *Framework {
	fw := New()
	f := *fw.Fabric
	f.Tracks16 = 0
	f.Tracks1 = 0
	fw.Fabric = &f
	return fw
}

// TestPnRDegradesOnUnroutableFabric drives the reseed→escalate ladder to
// exhaustion on an unroutable fabric and checks the evaluation degrades
// to the analytical estimate instead of failing: Degraded set, every
// rung attempted, and the metrics byte-identical to a PnR-off run.
func TestPnRDegradesOnUnroutableFabric(t *testing.T) {
	fw := trackless()
	app := apps.Camera()
	v, err := fw.BaselinePE(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := fw.Evaluate(context.Background(), app, v, FullEval)
	if err != nil {
		t.Fatalf("degraded evaluation must not error: %v", err)
	}
	if !r.Degraded {
		t.Fatal("expected Degraded on an unroutable fabric")
	}
	if want := len(pnrLadder); r.PnRAttempts != want {
		t.Errorf("PnRAttempts = %d, want %d (every ladder rung)", r.PnRAttempts, want)
	}
	if r.Routing != nil || r.RoutingTiles != 0 {
		t.Error("degraded result must not carry routing artifacts")
	}
	if !strings.Contains(r.DegradedReason, "routing failed after") {
		t.Errorf("DegradedReason = %q, want the ladder-exhausted message", r.DegradedReason)
	}

	est, err := fw.Evaluate(context.Background(), app, v, PostMapping)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalArea != est.TotalArea || r.TotalEnergy != est.TotalEnergy ||
		r.RuntimeMS != est.RuntimeMS || r.PerfPerMM2 != est.PerfPerMM2 {
		t.Errorf("degraded metrics differ from the analytical estimate:\ndegraded: area=%v energy=%v runtime=%v\nestimate: area=%v energy=%v runtime=%v",
			r.TotalArea, r.TotalEnergy, r.RuntimeMS, est.TotalArea, est.TotalEnergy, est.RuntimeMS)
	}

	// Degradation is deterministic: a second run reports the same thing.
	r2, err := fw.Evaluate(context.Background(), app, v, FullEval)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DegradedReason != r.DegradedReason || r2.TotalArea != r.TotalArea {
		t.Error("degraded evaluation is not deterministic across runs")
	}
}

// TestPnRLadderRetriesThenSucceeds injects non-convergence into the
// first two route attempts via the stage hook and checks the third rung
// completes normally: retried, converged, not degraded.
func TestPnRLadderRetriesThenSucceeds(t *testing.T) {
	fw := New()
	app := apps.Camera()
	v, err := fw.BaselinePE(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fails := 0
	opt := FullEval
	opt.Hook = func(stage string) error {
		if stage != "route" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if fails < 2 {
			fails++
			return fault.NonConvergencef("injected non-convergence %d", fails)
		}
		return nil
	}
	r, err := fw.Evaluate(context.Background(), app, v, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded {
		t.Fatalf("ladder should have recovered, but degraded: %s", r.DegradedReason)
	}
	if r.PnRAttempts != 3 {
		t.Errorf("PnRAttempts = %d, want 3 (two injected failures + success)", r.PnRAttempts)
	}
	if r.Routing == nil {
		t.Fatal("recovered evaluation must carry a routing")
	}

	// The recovered run's mapping-level metrics match a clean run's:
	// the ladder only perturbs the placement seed and router budget.
	clean, err := New().Evaluate(context.Background(), app, v, FullEval)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPEs != clean.NumPEs || r.LatencyCyc != clean.LatencyCyc {
		t.Errorf("mapping-level metrics changed under retry: PEs %d vs %d", r.NumPEs, clean.NumPEs)
	}
}

// TestEvaluateCancellation checks cancellation propagates as a typed
// ErrCanceled — never retried, never degraded — both when the context is
// dead on entry and when it dies mid-place-and-route.
func TestEvaluateCancellation(t *testing.T) {
	fw := New()
	app := apps.Camera()
	v, err := fw.BaselinePE(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := fw.Evaluate(pre, app, v, FullEval); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("dead-on-entry: err = %v, want ErrCanceled", err)
	}

	mid, midCancel := context.WithCancel(context.Background())
	defer midCancel()
	opt := FullEval
	opt.Hook = func(stage string) error {
		if stage == "place" {
			midCancel()
		}
		return nil
	}
	if _, err := fw.Evaluate(mid, app, v, opt); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("mid-run: err = %v, want ErrCanceled", err)
	}
}

// mapMemo is a minimal Memo: layouts in a plain map, built on first
// lookup; designs built on every lookup. onHit, when set, runs before a
// memoized layout is returned.
type mapMemo struct {
	layouts map[string]*Layout
	builds  int
	onHit   func()
}

func (m *mapMemo) Design(_ context.Context, _ string, build func() (*Design, error)) (*Design, error) {
	return build()
}

func (m *mapMemo) Layout(ctx context.Context, key string, build func(context.Context) (*Layout, error)) (*Layout, error) {
	if lay, ok := m.layouts[key]; ok {
		if m.onHit != nil {
			m.onHit()
		}
		return lay, nil
	}
	lay, err := build(ctx)
	if err == nil {
		m.builds++
		m.layouts[key] = lay
	}
	return lay, err
}

// TestEvaluateCancellationOnLayoutHit: a cell whose layout is already
// memoized still honours its own cancellation.
func TestEvaluateCancellationOnLayoutHit(t *testing.T) {
	fw := New()
	app := apps.Camera()
	v, err := fw.BaselinePE(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	memo := &mapMemo{layouts: map[string]*Layout{}}
	opt := FullEval
	opt.Memo = memo
	if _, err := fw.Evaluate(context.Background(), app, v, opt); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	memo.onHit = cancel
	if _, err := fw.Evaluate(ctx, app, v, opt); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled during a layout hit: err = %v, want ErrCanceled", err)
	}
	if memo.builds != 1 {
		t.Errorf("%d layout builds, want 1", memo.builds)
	}
}

// TestPnRDegradedLayoutShared: a degraded ladder outcome is shared like
// a routed one, and every cell that reuses it degrades exactly as a
// memo-less evaluation does.
func TestPnRDegradedLayoutShared(t *testing.T) {
	fw := trackless()
	app := apps.Camera()
	v, err := fw.BaselinePE(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Evaluate(context.Background(), app, v, FullEval)
	if err != nil {
		t.Fatal(err)
	}
	memo := &mapMemo{layouts: map[string]*Layout{}}
	opt := FullEval
	opt.Memo = memo
	for i := 0; i < 2; i++ {
		r, err := fw.Evaluate(context.Background(), app, v, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Degraded || r.DegradedReason != want.DegradedReason || r.PnRAttempts != want.PnRAttempts || r.Routing != nil {
			t.Errorf("evaluation %d: degraded=%v reason=%q attempts=%d; want %q after %d attempts",
				i, r.Degraded, r.DegradedReason, r.PnRAttempts, want.DegradedReason, want.PnRAttempts)
		}
	}
	if memo.builds != 1 {
		t.Errorf("%d layout builds, want 1", memo.builds)
	}
}

// TestLayoutKeyCoversNetlist: the layout key moves with everything the
// place-and-route ladder reads — node kinds, producers, which port
// (data or bit, and its position) a producer drives, the fabric, the
// placement knobs — and ignores what it does not read, so designs that
// differ only in PE configuration share a layout.
func TestLayoutKeyCoversNetlist(t *testing.T) {
	fw := New()
	v, err := fw.BaselinePE(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := fw.Evaluate(context.Background(), apps.Harris(), v, PostMapping)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *rewrite.Mapped {
		m := *r.Balanced
		m.Nodes = append([]rewrite.MNode(nil), m.Nodes...)
		for i := range m.Nodes {
			n := &m.Nodes[i]
			n.DataIn, n.BitIn = slices.Clone(n.DataIn), slices.Clone(n.BitIn)
			n.ConstVals = slices.Clone(n.ConstVals)
		}
		return &m
	}
	pe, reg := -1, -1
	for i, n := range r.Balanced.Nodes {
		if d, _ := n.WiredInputs(); pe < 0 && n.Kind == rewrite.KindPE && d > 0 {
			pe = i
		}
		if reg < 0 && n.Kind == rewrite.KindReg {
			reg = i
		}
	}
	if pe < 0 || reg < 0 {
		t.Fatal("harris has no PE with data inputs or no interconnect register")
	}
	firstPort := func(m *rewrite.Mapped) int {
		return slices.IndexFunc(m.Nodes[pe].DataIn, func(p int) bool { return p >= 0 })
	}
	// setPort wires ports[pos] to p, growing ports with unwired entries.
	setPort := func(ports []int, pos, p int) []int {
		for len(ports) <= pos {
			ports = append(ports, -1)
		}
		ports[pos] = p
		return ports
	}
	base := fw.layoutKey(r.Balanced)
	same := map[string]func(*rewrite.Mapped, *Framework){
		"design name": func(m *rewrite.Mapped, _ *Framework) { m.Name = "other" },
		"node name":   func(m *rewrite.Mapped, _ *Framework) { m.Nodes[reg].Name = "other" },
		"rule":        func(m *rewrite.Mapped, _ *Framework) { m.Nodes[pe].Rule = nil },
		"constants":   func(m *rewrite.Mapped, _ *Framework) { m.Nodes[pe].ConstVals = []rewrite.UnitVal{{Unit: 0, Val: 7}} },
		"unwired port": func(m *rewrite.Mapped, _ *Framework) {
			m.Nodes[pe].DataIn = append(m.Nodes[pe].DataIn, -1)
		},
		"fifo depth": func(m *rewrite.Mapped, _ *Framework) { m.Nodes[reg].Depth += 3 },
	}
	differ := map[string]func(*rewrite.Mapped, *Framework){
		"kind": func(m *rewrite.Mapped, _ *Framework) { m.Nodes[reg].Kind = rewrite.KindRegFile },
		"arg":  func(m *rewrite.Mapped, _ *Framework) { m.Nodes[reg].Arg = pe },
		"producer": func(m *rewrite.Mapped, _ *Framework) {
			m.Nodes[pe].DataIn[firstPort(m)] = reg
		},
		"port position": func(m *rewrite.Mapped, _ *Framework) {
			p := firstPort(m)
			m.Nodes[pe].DataIn = setPort(m.Nodes[pe].DataIn, p+100, m.Nodes[pe].DataIn[p])
			m.Nodes[pe].DataIn[p] = -1
		},
		"bit port added": func(m *rewrite.Mapped, _ *Framework) {
			m.Nodes[pe].BitIn = []int{reg}
		},
		"data to bit port": func(m *rewrite.Mapped, _ *Framework) {
			p := firstPort(m)
			m.Nodes[pe].BitIn = setPort(m.Nodes[pe].BitIn, p, m.Nodes[pe].DataIn[p])
			m.Nodes[pe].DataIn[p] = -1
		},
		"fabric tracks": func(_ *rewrite.Mapped, f *Framework) {
			fab := *f.Fabric
			fab.Tracks16++
			f.Fabric = &fab
		},
		"seed":        func(_ *rewrite.Mapped, f *Framework) { f.PlaceSeed++ },
		"seeds":       func(_ *rewrite.Mapped, f *Framework) { f.PlaceSeeds = 4 },
		"move budget": func(_ *rewrite.Mapped, f *Framework) { f.PlaceMoves = 1000 },
	}
	for name, mutate := range same {
		m, f := clone(), *fw
		mutate(m, &f)
		if f.layoutKey(m) != base {
			t.Errorf("changing the %s moved the layout key", name)
		}
	}
	for name, mutate := range differ {
		m, f := clone(), *fw
		mutate(m, &f)
		if f.layoutKey(m) == base {
			t.Errorf("changing the %s left the layout key unchanged", name)
		}
	}
}
