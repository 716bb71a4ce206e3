// Package memo is the pipeline's one in-process memo mechanism: a
// concurrency-safe, singleflight-style table that builds each key at
// most once. The evaluation harness (internal/eval) keeps its analyses,
// variants, results, designs, layouts and generated datapaths, PEs and
// rules in Tables, for the paper suite and for every sweep cell; the
// sweep engine (internal/sweep) keeps only its triage's post-mapping
// results in one.
package memo

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Table is a concurrency-safe, singleflight-style memo cache. The first
// caller of a key installs an in-flight entry and runs the build
// function *outside* the table lock; concurrent callers of the same key
// block on the entry's done channel and observe the exact same value,
// so every build function executes at most once per key no matter how
// many goroutines race on it. Callers of other keys are never blocked
// by an in-flight build. The zero Table is ready to use.
//
// Errors are cached alongside values: the whole flow is deterministic
// (seeded placement, pure analyses), so retrying a failed build cannot
// succeed and would only make results depend on call order.
//
// Do is also the recover boundary: a panic inside a build is converted
// to a typed error (classified by fault.AsPanic) and cached like any
// other failure, and the done channel closes no matter how the build
// exits — one poisoned build can neither take down a worker pool nor
// deadlock the other goroutines waiting on its key.
//
// Every lookup is counted (Stats); an instrumented table additionally
// records the worker-count-invariant counters memo.<name>.lookups and
// memo.<name>.miss in the run's metrics registry. The hit/coalesced
// split is deliberately kept out of the registry: whether a duplicate
// caller finds the entry finished (hit) or still in flight (coalesced)
// depends on scheduling, and the registry dump must stay byte-identical
// across worker counts.
type Table[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V] // allocated by the first build

	// inst names the table and holds the registry its invariant
	// counters go to; nil when uninstrumented. One pointer keeps the
	// table small: a harness holds six of them by value, and building
	// a harness is a benchmarked set-up cost. For the same reason the
	// panic count is 32 bits and shares a word with ForgetCanceled, so
	// a table is seven words.
	inst *instrument

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	panics    atomic.Int32

	// ForgetCanceled keeps canceled builds out of the table (see Do).
	// Set it before the first Do.
	ForgetCanceled bool
}

type entry[V any] struct {
	done chan struct{} // closed once val/err are final
	val  V
	err  error
}

type instrument struct {
	name string
	reg  *obs.Registry
}

// Instrument names the table and attaches the metrics registry its
// invariant counters go to (nil detaches).
func (t *Table[V]) Instrument(name string, reg *obs.Registry) {
	t.inst = nil
	if reg != nil {
		t.inst = &instrument{name, reg}
	}
}

// Stats is a point-in-time snapshot of one table's cache effectiveness:
// Hits found a finished entry, Coalesced joined an in-flight build
// (singleflight sharing), Misses ran the build, and Panics counts builds
// that hit the recover boundary.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Panics    int64 `json:"panics"`
}

// Lookups is the total number of Do calls the stats cover.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses + s.Coalesced }

// Stats snapshots the table's counters.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Coalesced: t.coalesced.Load(),
		Panics:    int64(t.panics.Load()),
	}
}

// Forget drops one key from the table. A build currently in flight for
// the key is unaffected — its waiters still observe its outcome through
// the entry they already hold — but the next Do of the key runs a fresh
// build. This is the retry hook for callers (the apexd executor) whose
// policy says a failure IS worth retrying, which the cache-the-error
// default deliberately does not.
func (t *Table[V]) Forget(key string) {
	t.mu.Lock()
	delete(t.entries, key)
	t.mu.Unlock()
}

// ForgetPrefix drops every key that starts with prefix, as Forget does
// for one key.
func (t *Table[V]) ForgetPrefix(prefix string) {
	t.mu.Lock()
	for k := range t.entries {
		if strings.HasPrefix(k, prefix) {
			delete(t.entries, k)
		}
	}
	t.mu.Unlock()
}

// Reset drops every entry (counters are kept — they describe the
// process lifetime, not the current generation). In-flight builds
// complete against their detached entries exactly as in Forget.
func (t *Table[V]) Reset() {
	t.mu.Lock()
	t.entries = nil
	t.mu.Unlock()
}

// Each calls fn, in key order, with the key, value and error of every
// finished build in the table; builds still in flight are skipped.
func (t *Table[V]) Each(fn func(key string, val V, err error)) {
	t.mu.Lock()
	keys := make([]string, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]*entry[V], len(keys))
	for i, k := range keys {
		entries[i] = t.entries[k]
	}
	t.mu.Unlock()
	for i, e := range entries {
		select {
		case <-e.done:
			fn(keys[i], e.val, e.err)
		default:
		}
	}
}

// Do returns the memoized value for key, running build at most once per
// key across all goroutines. A caller waiting on another goroutine's
// in-flight build stops waiting when ctx is canceled (the build itself
// keeps running and its result stays cached for later callers); the
// builder's own ctx handling is the build function's business. On a
// table with ForgetCanceled set, a build that fails with
// fault.ErrCanceled is returned to its own caller only: the entry is
// dropped, and callers that were waiting on it build afresh.
func (t *Table[V]) Do(ctx context.Context, key string, build func() (V, error)) (V, error) {
	if t.inst != nil {
		t.inst.reg.Counter("memo." + t.inst.name + ".lookups").Add(1)
	}
	for {
		t.mu.Lock()
		e, ok := t.entries[key]
		if !ok {
			break
		}
		t.mu.Unlock()
		// A caller is a hit if the entry was final on arrival, coalesced
		// if it joined the build in flight; it is counted once it leaves.
		joined := &t.hits
		select {
		case <-e.done:
		default:
			joined = &t.coalesced
		}
		select {
		case <-e.done:
			if t.ForgetCanceled && errors.Is(e.err, fault.ErrCanceled) {
				continue
			}
			joined.Add(1)
			return e.val, e.err
		case <-ctx.Done():
			joined.Add(1)
			var zero V
			return zero, fault.Canceled(ctx)
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	if t.entries == nil {
		t.entries = map[string]*entry[V]{}
	}
	t.entries[key] = e
	t.mu.Unlock()
	t.misses.Add(1)
	if t.inst != nil {
		t.inst.reg.Counter("memo." + t.inst.name + ".miss").Add(1)
	}

	func() {
		defer func() {
			if rec := recover(); rec != nil {
				t.panics.Add(1)
				e.err = fault.AsPanic("memo: build "+key, rec)
			}
			if t.ForgetCanceled && errors.Is(e.err, fault.ErrCanceled) {
				t.mu.Lock()
				if t.entries[key] == e {
					delete(t.entries, key)
				}
				t.mu.Unlock()
			}
			close(e.done)
		}()
		e.val, e.err = build()
	}()
	return e.val, e.err
}
