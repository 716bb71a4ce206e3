package store

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/wire"
)

// Key derivation. A cached value may only be reused when everything it
// was computed from is unchanged, so each key hashes the full provenance
// cone of its value:
//
//	analysis  <- app graph encoding + mining options (support, size cap)
//	selection <- the analysis key + k (the picks are a deterministic
//	             function of the analysis)
//	variant   <- variant name + the analyzed-app registry (variants are
//	             deterministic functions of analyses, which are functions
//	             of app graphs) + front-end options
//	result    <- app graph + the variant key + fabric config + placement
//	             seed/portfolio options + evaluation level (+ the placer
//	             revision for place-and-route cells)
//
// plus SchemaVersion (folded in by NewHasher), which stands in for the
// algorithm revision of the pipeline itself: a change to mining,
// core.SelectPatterns, merging or the backend that may alter a stored
// selection, variant or result needs a SchemaVersion bump. The registry hash is
// deliberately conservative: a change to any application graph
// invalidates every variant and result, trading a cold rebuild for the
// guarantee that a composition change (domain PEs mix subgraphs from
// several apps) can never be served stale.

// AppHash fingerprints one application: its IR graph encoding plus the
// roll-up parameters that flow into results. A registry app is hashed
// once per process: it is built once and read-only (package apps). Any
// other app, such as one compiled from user source, is hashed on every
// call and leaves nothing behind, however many are hashed.
func AppHash(a *apps.App) Key {
	if hash, ok := registryAppHashes[a.Name]; ok {
		if r, _ := apps.ByName(a.Name); r == a {
			return hash()
		}
	}
	return appHash(a)
}

// registryAppHashes holds the once-computed AppHash of each registry
// app, by name.
var registryAppHashes = func() map[string]func() Key {
	m := map[string]func() Key{}
	for _, name := range apps.Names() {
		m[name] = sync.OnceValue(func() Key {
			a, _ := apps.ByName(name)
			return appHash(a)
		})
	}
	return m
}()

func appHash(a *apps.App) Key {
	e := &wire.Enc{}
	encodeIRGraph(e, a.Graph)
	h := NewHasher("app")
	h.Str(a.Name)
	h.Bytes(e.Buf)
	h.Int(a.Unroll)
	h.Int(a.TotalOutputs)
	return h.Key()
}

// RegistryHash fingerprints the whole application registry in sorted
// name order — the conservative dependency cone of variant generation.
// It is computed once per process.
func RegistryHash() Key { return registryHash() }

var registryHash = sync.OnceValue(func() Key {
	h := NewHasher("registry")
	for _, a := range apps.All() {
		h.Str(string(AppHash(a)))
	}
	return h.Key()
})

// AnalysisKey keys a mined analysis: the app fingerprint plus the mining
// options the framework would use for it.
func AnalysisKey(appHash Key, fw *core.Framework) Key {
	h := NewHasher("analysis")
	h.Str(string(appHash))
	h.Int(fw.MaxPatternNodes)
	h.Int(fw.MinSupport)
	return h.Key()
}

// SelectionKey keys the first k picks of core.SelectPatterns over the
// analysis stored under analysisKey.
func SelectionKey(analysisKey Key, k int) Key {
	h := NewHasher("selection")
	h.Str(string(analysisKey))
	h.Int(k)
	return h.Key()
}

// VariantKey keys a generated PE variant by its name (unique per
// composition), the registry hash, and the front-end options.
func VariantKey(name string, registry Key, fw *core.Framework) Key {
	h := NewHasher("variant")
	h.Str(name)
	h.Str(string(registry))
	h.Int(fw.MaxPatternNodes)
	h.Int(fw.MinSupport)
	return h.Key()
}

// SampleKey keys a cost-model training sample one-to-one with the
// oracle result it was labeled from: the sample is a pure function of
// the result's provenance cone plus the feature schema revision, so the
// corpus dedups across runs exactly like results do.
func SampleKey(resultKey Key, featureSchema int) Key {
	h := NewHasher("sample")
	h.Str(string(resultKey))
	h.Int(featureSchema)
	return h.Key()
}

// ModelKey keys a trained cost model by everything its weights are a
// function of: the sweep-run fingerprint (grid, triage knobs, registry,
// schema) and the feature schema revision — so two runs share a model
// exactly when they would train identical ones.
func ModelKey(runFingerprint Key, featureSchema int) Key {
	h := NewHasher("model")
	h.Str(string(runFingerprint))
	h.Int(featureSchema)
	return h.Key()
}

// ResultKey keys one evaluation cell: the app and variant fingerprints,
// the fabric configuration, the placement options, and the evaluation
// level; a place-and-route cell also the placer's revision, so a store
// filled by another annealer never serves its layouts. Post-mapping
// cells read no placement and keep their keys across revisions.
func ResultKey(appHash, variantKey Key, fw *core.Framework, pnr, pipelined bool) Key {
	return resultKey(appHash, variantKey, fw, pnr, pipelined, cgra.PlacerRevision)
}

func resultKey(appHash, variantKey Key, fw *core.Framework, pnr, pipelined bool, placer int) Key {
	h := NewHasher("result")
	h.Str(string(appHash))
	h.Str(string(variantKey))
	f := fw.Fabric
	h.Int(f.W)
	h.Int(f.H)
	h.Int(f.MemColumnStride)
	h.Int(f.Tracks16)
	h.Int(f.Tracks1)
	h.Int64(fw.PlaceSeed)
	h.Int(fw.PlaceMoves)
	h.Int(fw.PlaceSeeds)
	h.Bool(pnr)
	h.Bool(pipelined)
	if pnr {
		h.Int(placer)
	}
	return h.Key()
}
