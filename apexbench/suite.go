package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/rewrite"
	"repro/internal/store"
)

// The suite workloads run every table and figure apex-eval prints with
// full place-and-route, serially (one harness worker, one mining
// worker), and gate the rendered Markdown byte for byte against the
// committed results_full.md. The suite's inputs are the fixed paper
// applications, so the seed only seeds the equivalence-check vectors.

// newSuiteHarness is the harness apex-eval -j 1 builds.
func newSuiteHarness() *eval.Harness {
	h := eval.NewHarness()
	h.Workers = 1
	h.FW.MineWorkers = 1
	return h
}

// runSuite runs one full suite pass and renders it the way apex-eval
// prints it (each table's Markdown followed by a blank line).
func runSuite(h *eval.Harness) ([]byte, error) {
	tables, err := h.Suite(context.Background(), true)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	for _, t := range tables {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	if rt := h.Report.Table(); rt != nil {
		b.WriteString(rt.Markdown())
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

func readGolden(cfg *config) ([]byte, error) {
	return os.ReadFile(filepath.Join(cfg.root, "results_full.md"))
}

func checkSuite(md, golden []byte, what string) error {
	if !bytes.Equal(md, golden) {
		return gatef("%s: suite Markdown differs from results_full.md", what)
	}
	return nil
}

// resultCells is the number of distinct evaluation cells a harness
// computed or loaded (its results-memo misses).
func resultCells(h *eval.Harness) int {
	return int(h.MemoStats()["results"].Misses)
}

func memoHitRatio(h *eval.Harness) float64 {
	var hits, lookups int64
	for _, s := range h.MemoStats() {
		hits += s.Hits + s.Coalesced
		lookups += s.Lookups()
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

func runSuiteCold(cfg *config, res *result, tr *tracer) error {
	golden, err := readGolden(cfg)
	if err != nil {
		return err
	}
	// Set-up is the harness construction; each timed pass builds its
	// own, so this is what a pass pays before its first evaluation.
	setupS, err := setupMedian(21, 5000, func() (func() error, error) {
		newSuiteHarness()
		return nil, nil
	})
	if err != nil {
		return err
	}
	// One untimed, checked warm-up pass: the first pass of a process
	// also pays for heap growth and cold caches.
	md, err := runSuite(newSuiteHarness())
	if err != nil {
		return err
	}
	if err := checkSuite(md, golden, "suite-cold warm-up"); err != nil {
		return err
	}
	mem0 := readMem()
	cells := 0
	passes, busy, err := timedLoop(res, cfg.seconds, 3, func(int) error {
		h := newSuiteHarness()
		md, err := runSuite(h)
		if err != nil {
			return err
		}
		res.attempted++
		cells += resultCells(h)
		return checkSuite(md, golden, "suite-cold")
	})
	if err != nil {
		return err
	}
	mem1 := readMem()
	if tr == nil {
		setEndToEnd(res, setupS, passes, passes, busy, cells)
		return nil
	}
	setLayerDefaults(res)
	setRuntime(res, mem0, mem1, len(passes))
	return traceSuite(cfg, res, tr, quantile(passes, 0.5))
}

func runSuiteWarm(cfg *config, res *result, tr *tracer) error {
	golden, err := readGolden(cfg)
	if err != nil {
		return err
	}
	// Set-up opens a fresh store and populates it with one cold pass.
	var st *store.Store
	setupS, err := setupMedian(3, 1, func() (func() error, error) {
		dir, err := cfg.mkdir("warm-store")
		if err != nil {
			return nil, err
		}
		s, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		h := newSuiteHarness()
		h.SetStore(s)
		md, err := runSuite(h)
		if err != nil {
			return nil, err
		}
		st = s
		return nil, checkSuite(md, golden, "suite-warm populate")
	})
	if err != nil {
		return err
	}
	mem0 := readMem()
	cells := 0
	var hits, misses, puts int64
	var lastH *eval.Harness
	passes, busy, err := timedLoop(res, cfg.seconds, 3, func(int) error {
		before := st.Stats()
		h := newSuiteHarness()
		lastH = h
		h.SetStore(st)
		md, err := runSuite(h)
		if err != nil {
			return err
		}
		after := st.Stats()
		res.attempted++
		cells += resultCells(h)
		hits += after.Hits - before.Hits
		misses += after.Misses - before.Misses
		puts += after.Puts - before.Puts
		if after.Misses != before.Misses {
			return gatef("suite-warm: %d store misses on a warm pass", after.Misses-before.Misses)
		}
		return checkSuite(md, golden, "suite-warm")
	})
	if err != nil {
		return err
	}
	mem1 := readMem()
	if tr == nil {
		setEndToEnd(res, setupS, passes, passes, busy, cells)
		return nil
	}
	setLayerDefaults(res)
	setRuntime(res, mem0, mem1, len(passes))
	n := float64(len(passes))
	res.set("store.hits", float64(hits)/n, "count", len(passes))
	res.set("store.misses", float64(misses)/n, "count", len(passes))
	res.set("store.puts", float64(puts)/n, "count", len(passes))
	diskBytes, entries := st.DiskBytes()
	res.set("store.entries", float64(entries), "count", 1)
	res.set("store.disk_bytes", float64(diskBytes), "bytes", 1)
	res.set("eval.memo_hit_ratio", memoHitRatio(lastH), "ratio", 1)

	// Replay a warm pass's reads: every stored analysis, variant and
	// result fetched and decoded under the span recorder.
	t0 := time.Now()
	rp := newReplayer(tr, cfg.seed)
	fw := newSuiteHarness().FW
	decoded := map[store.Kind]int{}
	var variants = map[string]*core.PEVariant{}
	var results []*core.Result
	for _, kind := range []store.Kind{store.KindAnalysis, store.KindVariant, store.KindResult} {
		keys, err := scanKeys(st, kind)
		if err != nil {
			return err
		}
		for _, key := range keys {
			var payload []byte
			var ok bool
			tr.do("store.get", func() { payload, ok = st.Get(kind, key) })
			if !ok {
				return gatef("suite-warm: stored %s %s vanished", kind, key)
			}
			var derr error
			tr.do("store.decode", func() {
				switch kind {
				case store.KindAnalysis:
					_, derr = store.DecodeAnalysis(payload)
				case store.KindVariant:
					var v *core.PEVariant
					v, derr = store.DecodeVariant(payload, fw.Tech)
					if derr == nil {
						variants[v.Name] = v
					}
				case store.KindResult:
					var r *core.Result
					r, derr = store.DecodeResult(payload)
					if derr == nil {
						results = append(results, r)
					}
				}
			})
			if derr != nil {
				return fmt.Errorf("suite-warm: decode %s: %w", kind, derr)
			}
			if kind == store.KindResult {
				if r := results[len(results)-1]; !bytes.Equal(store.EncodeResult(r), payload) {
					return gatef("suite-warm: result %s|%s does not round-trip", r.App, r.Variant)
				}
			}
			decoded[kind]++
		}
	}
	replayMS := float64(time.Since(t0)) / float64(time.Millisecond)
	if got := decoded[store.KindResult]; got != cells/len(passes) {
		return gatef("suite-warm: %d stored results, a pass loads %d", got, cells/len(passes))
	}
	// A warm pass computes no new designs; the equivalence check runs on
	// the decoded variants instead, so a codec that corrupts a rule's
	// configuration fails here.
	for _, r := range results {
		app, err := apps.ByName(r.App)
		if err != nil {
			return err
		}
		v := variants[r.Variant]
		if v == nil {
			return gatef("suite-warm: result %s|%s has no stored variant", r.App, r.Variant)
		}
		m, err := rewrite.MapApp(app.Graph, v.Rules, app.Name+"@"+v.Name)
		if err != nil {
			return fmt.Errorf("suite-warm: map %s on decoded %s: %w", r.App, r.Variant, err)
		}
		if m.NumPEs() != r.NumPEs {
			return gatef("suite-warm: decoded %s maps %s to %d PEs, stored result says %d", r.Variant, r.App, m.NumPEs(), r.NumPEs)
		}
		if err := rp.checkEquivalent(app.Graph, m, r.App+" on decoded "+r.Variant); err != nil {
			return err
		}
	}
	suiteMS := 1000 * quantile(passes, 0.5)
	tr.setLayers(res)
	res.set("eval.other_ms", suiteMS-tr.layerMS(), "ms", len(passes))
	res.set("verify.equiv_designs", float64(rp.equivDesigns), "count", 1)
	res.set("verify.replayed_cells", float64(decoded[store.KindResult]), "count", 1)
	res.set("trace.overhead_ms", replayMS-suiteMS, "ms", 1)
	return nil
}

// scanKeys lists the keys of every stored entry of one kind, sorted.
func scanKeys(st *store.Store, kind store.Kind) ([]store.Key, error) {
	var keys []store.Key
	err := st.Scan(kind, func(k store.Key, _ []byte) error {
		keys = append(keys, k)
		return nil
	})
	return keys, err
}

// traceSuite is the suite-cold traced run. One untimed pass runs over a
// fresh store, which records exactly the analyses, variants and cells
// the harness computed; the replay then re-runs each through the core
// entry points and their layer calls, in the order a pass needs them.
func traceSuite(cfg *config, res *result, tr *tracer, suiteS float64) error {
	golden, err := readGolden(cfg)
	if err != nil {
		return err
	}
	dir, err := cfg.mkdir("trace-store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	h := newSuiteHarness()
	h.SetStore(st)
	md, err := runSuite(h)
	if err != nil {
		return err
	}
	if err := checkSuite(md, golden, "suite-cold traced pass"); err != nil {
		return err
	}
	misses := resultCells(h)
	res.set("eval.memo_hit_ratio", memoHitRatio(h), "ratio", 1)

	t0 := time.Now()
	rp := newReplayer(tr, cfg.seed)
	fw := newSuiteHarness().FW
	analyses := map[string]*core.Analysis{}
	for _, app := range apps.All() {
		key := store.AnalysisKey(store.AppHash(app), fw)
		want, ok := st.Get(store.KindAnalysis, key)
		if !ok {
			continue
		}
		a, err := rp.analyze(fw, app)
		if err != nil {
			return err
		}
		if !bytes.Equal(store.EncodeAnalysis(a), want) {
			return gatef("suite-cold: replayed analysis of %s differs from the untimed pass's", app.Name)
		}
		analyses[app.Name] = a
	}

	variantKeys, err := scanKeys(st, store.KindVariant)
	if err != nil {
		return err
	}
	type stored struct {
		name    string
		payload []byte
	}
	var storedVariants []stored
	for _, key := range variantKeys {
		payload, _ := st.Get(store.KindVariant, key)
		v, err := store.DecodeVariant(payload, fw.Tech)
		if err != nil {
			return err
		}
		storedVariants = append(storedVariants, stored{v.Name, payload})
	}
	sort.Slice(storedVariants, func(i, j int) bool { return storedVariants[i].name < storedVariants[j].name })
	variants := map[string]*core.PEVariant{}
	for _, sv := range storedVariants {
		rc, err := suiteRecipe(rp, fw, sv.name, analyses)
		if err != nil {
			return err
		}
		v, err := rp.generate(fw, rc)
		if err != nil {
			return err
		}
		if !bytes.Equal(store.EncodeVariant(v), sv.payload) {
			return gatef("suite-cold: replayed variant %s differs from the untimed pass's", sv.name)
		}
		variants[sv.name] = v
	}

	cells, err := storedCells(st)
	if err != nil {
		return err
	}
	if len(cells) != misses {
		return gatef("suite-cold: replay has %d cells, the harness computed %d", len(cells), misses)
	}
	pnrCells := 0
	for _, c := range cells {
		app, err := apps.ByName(c.app)
		if err != nil {
			return err
		}
		v := variants[c.variant]
		if v == nil {
			return gatef("suite-cold: cell %s|%s has no replayed variant", c.app, c.variant)
		}
		r, err := rp.evaluate(fw, app, v, core.EvalOptions{PnR: c.pnr, Pipelined: c.pipelined})
		if err != nil {
			return err
		}
		if !bytes.Equal(store.EncodeResult(r), c.payload) {
			return gatef("suite-cold: replayed result %s|%s|%v|%v differs from the untimed pass's", c.app, c.variant, c.pnr, c.pipelined)
		}
		if c.pnr {
			pnrCells++
		}
	}
	replayMS := float64(time.Since(t0)) / float64(time.Millisecond)
	suiteMS := 1000 * suiteS
	tr.setLayers(res)
	res.set("eval.other_ms", suiteMS-tr.layerMS(), "ms", 1)
	res.set("degraded_frac", tr.counts["core.degraded"]/float64(max(pnrCells, 1)), "ratio", pnrCells)
	res.set("verify.equiv_designs", float64(rp.equivDesigns), "count", 1)
	res.set("verify.replayed_cells", float64(len(cells)), "count", 1)
	res.set("trace.overhead_ms", replayMS-suiteMS, "ms", 1)
	return nil
}

// storedCell is one evaluation cell recorded in a store: its identity
// (pnr and pipelining are recovered from the result, which records PnR
// attempts only under PnR and a nonzero PE latency only when
// pipelined) and its encoded result.
type storedCell struct {
	app, variant   string
	pnr, pipelined bool
	payload        []byte
}

func storedCells(st *store.Store) ([]storedCell, error) {
	var cells []storedCell
	err := st.Scan(store.KindResult, func(_ store.Key, payload []byte) error {
		r, err := store.DecodeResult(payload)
		if err != nil {
			return err
		}
		cells = append(cells, storedCell{r.App, r.Variant, r.PnRAttempts > 0, r.PELatency > 0, payload})
		return nil
	})
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.variant != b.variant {
			return a.variant < b.variant
		}
		if a.app != b.app {
			return a.app < b.app
		}
		if a.pnr != b.pnr {
			return !a.pnr
		}
		return !a.pipelined && b.pipelined
	})
	return cells, err
}

// suiteRecipe reconstructs how the evaluation harness builds each named
// variant (eval.Harness Baseline/LadderPE/SpecializedPE/DomainPE and the
// ablation variants), from the replayed analyses.
func suiteRecipe(rp *replayer, fw *core.Framework, name string, analyses map[string]*core.Analysis) (peRecipe, error) {
	an := func(app string) (*core.Analysis, error) {
		if a := analyses[app]; a != nil {
			return a, nil
		}
		return nil, fmt.Errorf("variant %s needs the analysis of %s", name, app)
	}
	appOps := func(app string) []ir.Op {
		a, _ := apps.ByName(app)
		return a.UsedOps()
	}
	domain := func(members []*apps.App, perApp int, extra map[string]int) (peRecipe, error) {
		var named []rewrite.NamedPattern
		seen := map[string]bool{}
		for _, a := range members {
			analysis, err := an(a.Name)
			if err != nil {
				return peRecipe{}, err
			}
			for i, r := range core.SelectPatterns(analysis, perApp+extra[a.Name]) {
				if seen[r.Pattern.Code] {
					continue
				}
				seen[r.Pattern.Code] = true
				np, err := rewrite.PatternFromMined(r.Pattern.Graph, fmt.Sprintf("%s_%s%d", name, a.Name, i))
				if err != nil {
					return peRecipe{}, err
				}
				named = append(named, np)
			}
		}
		return peRecipe{name: name, baseOps: core.UnionOps(members), named: named}, nil
	}
	ranked := func(app string, k int) (peRecipe, error) {
		a, err := an(app)
		if err != nil {
			return peRecipe{}, err
		}
		return peRecipe{name: name, baseOps: appOps(app), ranked: core.SelectPatterns(a, k)}, nil
	}
	switch {
	case name == "baseline":
		return peRecipe{name: name, baseOps: ir.BaselineALUOps(), baseline: true}, nil
	case name == "pe_ip":
		return domain(apps.AnalyzedIP(), 1, nil)
	case name == "pe_ip2":
		return domain(apps.AnalyzedIP(), 2, nil)
	case name == "pe_ip3":
		return domain(apps.AnalyzedIP(), 1, map[string]int{"camera": 2})
	case name == "pe_ml":
		return domain(apps.AnalyzedML(), 2, nil)
	case name == "abl_mis":
		return ranked("camera", 1)
	case name == "abl_freq":
		return freqRecipe(rp, fw, name)
	case strings.HasPrefix(name, "spec_"):
		return ranked(strings.TrimPrefix(name, "spec_"), 3)
	}
	if i := strings.LastIndex(name, "_pe"); i > 0 {
		if k, err := strconv.Atoi(name[i+3:]); err == nil {
			return ranked(name[:i], k-1)
		}
	}
	return peRecipe{}, fmt.Errorf("no recipe for variant %s", name)
}

// freqRecipe is the frequency-ranked ablation variant: camera re-mined
// (top-level layer calls, as the harness makes them) and ranked by
// frequency, taking the first pattern that converts to a rule.
func freqRecipe(rp *replayer, fw *core.Framework, name string) (peRecipe, error) {
	app := apps.Camera()
	var pats []mining.Pattern
	var err error
	var view *graph.Graph
	rp.t.do("mining.view", func() { view, _ = mining.ComputeView(app.Graph) })
	minSupport := max(app.ComputeOps()/40, 4)
	rp.t.do("mining.mine", func() {
		pats, err = mining.Mine(rp.ctx, view, mining.Options{MinSupport: minSupport, MaxNodes: fw.MaxPatternNodes, Workers: fw.MineWorkers})
	})
	if err != nil {
		return peRecipe{}, err
	}
	rp.t.add("mining.calls", 1)
	rp.t.add("mining.patterns", float64(len(pats)))
	var byFreq []mis.Ranked
	rp.t.do("mis.rank", func() { byFreq = mis.RankByFrequency(rp.ctx, pats) })
	pick := 0
	for pick < len(byFreq) {
		if _, err := rewrite.PatternFromMined(byFreq[pick].Pattern.Graph, "probe"); err == nil {
			break
		}
		pick++
	}
	if pick == len(byFreq) {
		return peRecipe{}, fmt.Errorf("abl_freq: no convertible pattern")
	}
	return peRecipe{name: name, baseOps: app.UsedOps(), ranked: byFreq[pick : pick+1]}, nil
}
