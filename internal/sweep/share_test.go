package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/rewrite"
)

// reportDigestFile pins the bytes of one small triaged PnR sweep report
// (Steals zeroed: it is a scheduler statistic). Sharing designs and
// layouts between cells must not move a single number of it.
const reportDigestFile = "testdata/report.sha256"

// pinnedGrid is a triaged PnR grid on which work is shared: camera's
// selection order runs out after four picks, so its k = 4, 5 and 6
// variants (at either support) are one physical netlist per seed, and
// the triage sends several of those cells to the oracle.
func pinnedGrid() (Grid, TriageOptions) {
	return Grid{
		Apps:      []string{"camera"},
		Supports:  []int{0, 8},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{1, 2, 3},
		Ks:        []int{1, 3, 4, 5, 6},
		PnR:       true,
		Pipelined: true,
	}, TriageOptions{Enabled: true, Top: 0.5, Explore: 0.2, Seed: 1, MinTrain: 2}
}

func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
	r.Steals = 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSweepReportPinned: the pinned grid's report matches its pinned
// digest at one and four workers.
func TestSweepReportPinned(t *testing.T) {
	raw, err := os.ReadFile(reportDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	g, tri := pinnedGrid()
	for _, w := range []int{1, 4} {
		rep := mustRun(t, g, Options{Workers: w, Triage: tri})
		if got := reportDigest(t, rep); got != want {
			t.Errorf("Workers=%d: report digest moved:\n got %s\nwant %s\n(replace %s only after an intentional change to sweep results)", w, got, want, reportDigestFile)
		}
	}
}

var errKeyOnly = errors.New("layout key recorded")

// keyMemo is a core.Memo that builds designs and records, instead of
// building, the layout an evaluation asks for.
type keyMemo struct{ key string }

func (m *keyMemo) Design(_ context.Context, _ string, build func() (*core.Design, error)) (*core.Design, error) {
	return build()
}

func (m *keyMemo) Layout(_ context.Context, key string, _ func(context.Context) (*core.Layout, error)) (*core.Layout, error) {
	m.key = key
	return nil, errKeyOnly
}

// TestSweepSharesLayouts: on the pinned grid the run places each
// distinct physical netlist of its oracle cells once — fewer layouts
// than oracle cells — and maps each variant and balances it at each PE
// latency once, shared by its post-mapping and oracle evaluations.
func TestSweepSharesLayouts(t *testing.T) {
	g, tri := pinnedGrid()
	reg := obs.NewRegistry()
	rep := mustRun(t, g, Options{Workers: 4, Triage: tri, Obs: &obs.Obs{Metrics: reg}})

	ctx := context.Background()
	e := newEngine(g.Normalized(), Options{})
	netlists := map[string]bool{}
	designs := map[string]bool{}
	oracle := 0
	for _, r := range rep.Results {
		app, err := apps.ByName(r.App)
		if err != nil {
			t.Fatal(err)
		}
		fw := e.frameworkFor(r.Cell)
		v, err := e.variant(r.Cell, app, fw)
		if err != nil {
			t.Fatal(err)
		}
		designs[v.Name+"|map"] = true
		designs[fmt.Sprintf("%s|balance|%d", v.Name, max(v.Pipelined.Stages, 1))] = true
		if r.Predicted {
			continue
		}
		oracle++
		m := &keyMemo{}
		if _, err := fw.Evaluate(ctx, app, v, core.EvalOptions{PnR: true, Pipelined: true, Memo: m}); !errors.Is(err, errKeyOnly) {
			t.Fatalf("cell %s: recording evaluation returned %v", r.Cell, err)
		}
		netlists[m.key] = true
	}
	t.Logf("%d oracle cells, %d distinct netlists, %d designs", oracle, len(netlists), len(designs))
	if len(netlists) >= oracle {
		t.Fatalf("%d oracle cells have %d distinct netlists; the grid shares none", oracle, len(netlists))
	}
	if got := reg.Counter("memo.layouts.miss").Value(); got != int64(len(netlists)) {
		t.Errorf("placed %d layouts for %d oracle cells; want one per distinct netlist, %d", got, oracle, len(netlists))
	}
	if got := reg.Counter("memo.designs.miss").Value(); got != int64(len(designs)) {
		t.Errorf("built %d designs; want %d (one map per variant, one balance per variant and PE latency)", got, len(designs))
	}
}

// TestGuardCellRecoversPanic: a panic in one cell's evaluation becomes
// that cell's error instead of crashing the worker and the process, and
// a clean evaluation passes through unchanged.
func TestGuardCellRecoversPanic(t *testing.T) {
	c := Cell{Index: 7, App: "camera", FabricW: 32, FabricH: 16, Seed: 1, K: 2}
	res := guardCell(c, func() CellResult { panic("boom") })
	if res.Cell != c || res.Variant != c.VariantName() {
		t.Fatalf("guarded result names cell %+v variant %q; want %+v %q", res.Cell, res.Variant, c, c.VariantName())
	}
	if !strings.Contains(res.Err, "panic: boom") || !strings.Contains(res.Err, c.String()) {
		t.Fatalf("guarded result error %q does not name the cell and the panic", res.Err)
	}
	want := CellResult{Cell: c, Variant: "v", NumPEs: 3}
	if got := guardCell(c, func() CellResult { return want }); got != want {
		t.Fatalf("guardCell changed a clean result: %+v", got)
	}
}

// TestSweepGeneratesEachDistinctPEOnce: a sweep generates each distinct
// PE once, merges each distinct pattern prefix once, and synthesizes
// each distinct (datapath, rule pattern) pair once, whatever the variant
// names. Supports 0 and 8 pick the same patterns for most of the grid's
// (app, k) points, so most variant names are served from another name's
// build: the generated table misses once per distinct PE, merge prefix
// and synthesis pair. It is looked up once per variant name and rule
// pattern, since a served variant takes its rules under its own names
// from the synthesized pairs, and once per merge step of each PE it
// builds.
func TestSweepGeneratesEachDistinctPEOnce(t *testing.T) {
	g := Grid{
		Apps:      []string{"camera", "harris", "unsharp", "resnet"},
		Supports:  []int{0, 8},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{1},
		Ks:        []int{1, 2, 3, 4, 5, 6},
		Pipelined: true,
	}
	reg := obs.NewRegistry()
	rep := mustRun(t, g, Options{Workers: 4, Obs: &obs.Obs{Metrics: reg}})

	// A PE is its app's op set and its picks in order; a merge prefix is
	// the op set and the first i picks, i = 0..k; a synthesis pair is a
	// PE's datapath (without its Sources) and one of its rule patterns.
	ctx := context.Background()
	e := newEngine(g.Normalized(), Options{})
	names := map[string]bool{}
	pes := map[string]bool{}
	prefixes := map[string]bool{}
	pairs := map[string]bool{}
	lookups := int64(0)
	for _, r := range rep.Results {
		if names[r.Variant] {
			continue
		}
		names[r.Variant] = true
		lookups++
		app, err := apps.ByName(r.App)
		if err != nil {
			t.Fatal(err)
		}
		fw := e.frameworkFor(r.Cell)
		picks := core.SelectPatterns(e.h.AnalysisFor(fw, app), r.K)
		key := fmt.Sprint(app.UsedOps())
		prefixes[key] = true
		for _, p := range picks {
			key += "|" + p.Pattern.Code
			prefixes[key] = true
		}
		var named []rewrite.NamedPattern
		for i, p := range picks {
			np, err := rewrite.PatternFromMined(p.Pattern.Graph, fmt.Sprintf("%s_sg%d", r.Variant, i))
			if err != nil {
				t.Fatal(err)
			}
			named = append(named, np)
		}
		var pats []rewrite.NamedPattern
		seen := map[string]bool{}
		for _, np := range rewrite.RulePatterns(named, append(append([]ir.Op(nil), app.UsedOps()...), core.ControlOps...)) {
			if !seen[np.Name] {
				seen[np.Name] = true
				pats = append(pats, np)
			}
		}
		lookups += int64(len(pats))
		if pes[key] {
			continue
		}
		pes[key] = true
		lookups += int64(len(picks) + 1)
		v, err := fw.GeneratePE(ctx, r.Variant, app.UsedOps(), picks)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range pats {
			pairs[fmt.Sprint(v.Spec.DP.Units, v.Spec.DP.Wires, np.Graph.Nodes)] = true
		}
	}
	t.Logf("%d variant names, %d distinct PEs, %d merge prefixes, %d synthesis pairs", len(names), len(pes), len(prefixes), len(pairs))
	if len(pes) >= len(names) {
		t.Fatalf("%d variant names have %d distinct PEs; the grid shares none", len(names), len(pes))
	}
	if got, want := reg.Counter("memo.generated.miss").Value(), int64(len(pes)+len(prefixes)+len(pairs)); got != want {
		t.Errorf("generated table missed %d times; want %d, one per distinct PE (%d), merge prefix (%d) and synthesis pair (%d)", got, want, len(pes), len(prefixes), len(pairs))
	}
	if got := reg.Counter("memo.generated.lookups").Value(); got != lookups {
		t.Errorf("generated table was looked up %d times; want %d, one per variant name, one per rule pattern of each variant and one per merge step of each built PE", got, lookups)
	}
}
