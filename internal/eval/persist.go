package eval

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/store"
)

// Persistent-cache integration: the disk store sits *under* the
// in-process singleflight memo tables. A memo miss first consults the
// store; only a double miss computes, and the computed value is written
// back. The layering preserves every memo guarantee (exactly-once per
// key per process, panic containment, cancellation semantics) and adds
// cross-process, cross-run reuse: a warm apex-eval run deserializes
// pattern selections, variants, and results instead of mining,
// selecting, merging, and placing-and-routing them — byte-identical
// tables, an order of magnitude faster.
//
// The store is bypassed entirely when a fault-injection plan is
// installed: injected failures and sabotaged cells must never poison
// (or be served from) the durable cache.

// SetStore attaches a persistent result store to the harness. Call it
// before the first evaluation; nil (the default) keeps the harness fully
// in-memory.
func (h *Harness) SetStore(s *store.Store) { h.store = s }

// Store returns the attached persistent store (nil when none).
func (h *Harness) Store() *store.Store { return h.store }

// useStore reports whether disk persistence is active for this run.
func (h *Harness) useStore() bool { return h.store != nil && h.Faults == nil }

// cacheCount bumps a cache.* metric when observability is attached. The
// counters are worker-count-invariant: whether an entry hits depends
// only on the store contents, never on scheduling.
func (h *Harness) cacheCount(name string) {
	if h.obs != nil && h.obs.Metrics != nil {
		h.obs.Metrics.Counter(name).Add(1)
	}
}

// The load/save helpers key every entry by the framework the caller
// built it with: the harness's own FW for the paper suite, a cell's
// framework for a sweep.

// loadAnalysis consults the store for a mined analysis.
func (h *Harness) loadAnalysis(fw *core.Framework, app *apps.App) (*core.Analysis, bool) {
	key := store.AnalysisKey(store.AppHash(app), fw)
	payload, ok := h.store.Get(store.KindAnalysis, key)
	if !ok {
		h.cacheCount("cache.analysis.miss")
		return nil, false
	}
	a, err := store.DecodeAnalysis(payload)
	if err != nil {
		// Envelope-valid but undecodable payload: schema drift within one
		// SchemaVersion. Treat as corruption — recompute and overwrite.
		h.cacheCount("cache.analysis.corrupt")
		h.logger().Warn("cached analysis undecodable, recomputing", "app", app.Name, "err", err.Error())
		return nil, false
	}
	h.cacheCount("cache.analysis.hit")
	return a, true
}

func (h *Harness) saveAnalysis(fw *core.Framework, app *apps.App, a *core.Analysis) {
	key := store.AnalysisKey(store.AppHash(app), fw)
	h.store.Put(store.KindAnalysis, key, store.EncodeAnalysis(a))
	h.cacheCount("cache.analysis.put")
}

// loadSelection consults the store for the pick codes of the first k
// patterns selected from app's analysis.
func (h *Harness) loadSelection(fw *core.Framework, app *apps.App, k int) ([]string, bool) {
	payload, ok := h.store.Get(store.KindSelection, selectionKey(fw, app, k))
	if !ok {
		h.cacheCount("cache.selection.miss")
		return nil, false
	}
	codes, err := store.DecodeSelection(payload)
	if err != nil {
		h.cacheCount("cache.selection.corrupt")
		h.logger().Warn("cached selection undecodable, recomputing", "app", app.Name, "k", k, "err", err.Error())
		return nil, false
	}
	h.cacheCount("cache.selection.hit")
	return codes, true
}

func (h *Harness) saveSelection(fw *core.Framework, app *apps.App, k int, codes []string) {
	h.store.Put(store.KindSelection, selectionKey(fw, app, k), store.EncodeSelection(codes))
	h.cacheCount("cache.selection.put")
}

func selectionKey(fw *core.Framework, app *apps.App, k int) store.Key {
	return store.SelectionKey(store.AnalysisKey(store.AppHash(app), fw), k)
}

// loadVariant consults the store for a generated PE variant. The
// variant's rule set is built only when something reads it, counted as
// cache.variant.rules_decoded: a warm pass serves most cells from
// stored results and never maps on most variants it loads.
func (h *Harness) loadVariant(fw *core.Framework, name string) (*core.PEVariant, bool) {
	payload, ok := h.store.Get(store.KindVariant, h.variantKey(fw, name))
	if !ok {
		h.cacheCount("cache.variant.miss")
		return nil, false
	}
	v, err := store.DecodeVariantLazy(payload, fw.Tech, func() { h.cacheCount("cache.variant.rules_decoded") })
	if err != nil {
		h.cacheCount("cache.variant.corrupt")
		h.logger().Warn("cached variant undecodable, recomputing", "variant", name, "err", err.Error())
		return nil, false
	}
	h.cacheCount("cache.variant.hit")
	return v, true
}

func (h *Harness) saveVariant(fw *core.Framework, v *core.PEVariant) {
	h.store.Put(store.KindVariant, h.variantKey(fw, v.Name), store.EncodeVariant(v))
	h.cacheCount("cache.variant.put")
}

// loadResult consults the store for an evaluation cell.
func (h *Harness) loadResult(fw *core.Framework, app *apps.App, v *core.PEVariant, pnr, pipelined bool) (*core.Result, bool) {
	key := h.ResultKey(fw, app, v.Name, pnr, pipelined)
	payload, ok := h.store.Get(store.KindResult, key)
	if !ok {
		h.cacheCount("cache.result.miss")
		return nil, false
	}
	r, err := store.DecodeResult(payload)
	if err != nil {
		h.cacheCount("cache.result.corrupt")
		h.logger().Warn("cached result undecodable, recomputing",
			"app", app.Name, "variant", v.Name, "err", err.Error())
		return nil, false
	}
	h.cacheCount("cache.result.hit")
	return r, true
}

func (h *Harness) saveResult(fw *core.Framework, app *apps.App, v *core.PEVariant, pnr, pipelined bool, r *core.Result) {
	h.store.Put(store.KindResult, h.ResultKey(fw, app, v.Name, pnr, pipelined), store.EncodeResult(r))
	h.cacheCount("cache.result.put")
}

// ResultKey is the store key of the evaluation of app on the named
// variant under fw: the key EvaluateFor reads and writes.
func (h *Harness) ResultKey(fw *core.Framework, app *apps.App, variant string, pnr, pipelined bool) store.Key {
	return store.ResultKey(store.AppHash(app), h.variantKey(fw, variant), fw, pnr, pipelined)
}

// variantKeyOf is what store.VariantKey reads: the variant's name and
// fw's mining options (the registry hash is fixed per process).
type variantKeyOf struct {
	name                        string
	maxPatternNodes, minSupport int
}

// variantKey is store.VariantKey(name, store.RegistryHash(), fw),
// hashed once per variant and mining options: a suite pass keys 68
// results over 17 variants, and a sweep builds a framework per cell.
func (h *Harness) variantKey(fw *core.Framework, name string) store.Key {
	keys := h.variantKeys.Load()
	for keys == nil { // a ResetMemos may drop the map just made
		h.variantKeys.CompareAndSwap(nil, new(sync.Map))
		keys = h.variantKeys.Load()
	}
	of := variantKeyOf{name, fw.MaxPatternNodes, fw.MinSupport}
	if k, ok := keys.Load(of); ok {
		return k.(store.Key)
	}
	k := store.VariantKey(name, store.RegistryHash(), fw)
	keys.Store(of, k)
	return k
}
