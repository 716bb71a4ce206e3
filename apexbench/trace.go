package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer is the benchmark's span recorder. Spans are recorded around
// calls into the program's public functions during the traced replay;
// nothing inside the program is instrumented. A span's self time is its
// duration minus the time its child spans cover. Counters are recorded
// at the same boundaries.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
	counts map[string]float64
	calls  int // core calls recorded, for the order alternation
}

type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // -1 for a root span
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`

	dur      time.Duration
	childDur time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUS: time.Since(t.origin).Microseconds()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (t *tracer) end(i int) {
	t.endAs(i, time.Since(t.origin)-time.Duration(t.spans[i].StartUS)*time.Microsecond)
}

// endAs closes span i with an explicit duration.
func (t *tracer) endAs(i int, dur time.Duration) {
	s := &t.spans[i]
	s.dur = dur
	s.DurUS = s.dur.Microseconds()
	t.open = t.open[:len(t.open)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].childDur += s.dur
	}
}

// do records fn as one span.
func (t *tracer) do(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// core records one call of a core entry point: real is the program's
// own call, whose duration becomes the span's; replay re-runs the layer
// calls it decomposes into as child spans, so the span's self time is
// the entry point's own work outside those layers.
//
// Whichever of the two runs first pays the cold caches, so the order
// alternates from call to call and the bias cancels in the sums.
func (t *tracer) core(name string, real, replay func()) {
	i := t.begin(name)
	t.calls++
	var d time.Duration
	if t.calls%2 == 0 {
		replay()
	}
	t0 := time.Now()
	real()
	d = time.Since(t0)
	if t.calls%2 == 1 {
		replay()
	}
	t.endAs(i, d)
}

func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// selfMS sums the self time of every span with the given name.
func (t *tracer) selfMS(names ...string) float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var d time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; want[s.Name] {
			d += s.dur - s.childDur
		}
	}
	return float64(d) / float64(time.Millisecond)
}

// layerNames are the replayed layer spans; their self times add up to
// the replayed work below the core entry points.
var layerNames = []string{
	"cgra.place", "cgra.route",
	"merge.baseline", "merge.from_pattern", "merge.merge", "pe.from_datapath",
	"rewrite.synth", "rewrite.map",
	"pipeline.pe", "pipeline.balance",
	"mining.view", "mining.mine", "mis.rank",
	"frontend.compile", "ir.optimize",
	"store.get", "store.decode", "store.put",
	"costmodel.features", "costmodel.train",
}

// setLayers records every per-layer timing and counter from the replay.
func (t *tracer) setLayers(res *result) {
	ms := func(name string, spans ...string) { res.set(name, t.selfMS(spans...), "ms", 0) }
	cnt := func(name string) { res.set(name, t.counts[name], "count", 0) }

	ms("cgra.place_ms", "cgra.place")
	cnt("cgra.place_calls")
	ms("cgra.route_ms", "cgra.route")
	cnt("cgra.route_nets")
	cnt("cgra.route_hops")
	ms("cgra.bitstream_ms", "cgra.bitstream")

	ms("merge.merge_ms", "merge.baseline", "merge.from_pattern", "merge.merge", "pe.from_datapath")
	cnt("merge.calls")
	cnt("merge.units")

	ms("rewrite.synth_ms", "rewrite.synth")
	cnt("rewrite.rules")
	ms("rewrite.map_ms", "rewrite.map")
	cnt("rewrite.mapped_pes")

	ms("pipeline.pe_ms", "pipeline.pe")
	ms("pipeline.balance_ms", "pipeline.balance")
	cnt("pipeline.regs")

	ms("mining.view_ms", "mining.view")
	ms("mining.mine_ms", "mining.mine")
	cnt("mining.calls")
	cnt("mining.patterns")
	ms("mis.rank_ms", "mis.rank")
	cnt("mis.ranked")

	ms("frontend.compile_ms", "frontend.compile")
	ms("ir.optimize_ms", "ir.optimize")

	// A core entry point's self time is its real call's duration minus
	// the replayed layer calls it decomposes into (see tracer.core).
	ms("core.analyze_self_ms", "core.analyze")
	ms("core.generate_self_ms", "core.generate")
	ms("core.evaluate_self_ms", "core.evaluate")
	cnt("core.pnr_attempts")
	cnt("core.degraded")

	ms("store.get_ms", "store.get")
	ms("store.decode_ms", "store.decode")
	ms("store.put_ms", "store.put")

	ms("costmodel.features_ms", "costmodel.features")
	ms("costmodel.train_ms", "costmodel.train")
}

// coreNames are the core entry-point spans. cgra.bitstream is not
// among the layer spans counted in layerMS: the replay generates
// bitstreams for routed designs, but the evaluation pipeline does not.
var coreNames = []string{"core.analyze", "core.generate", "core.evaluate"}

// layerMS is the total replayed program time: every outermost core or
// layer span's duration (a core span's duration is its real call's).
func (t *tracer) layerMS() float64 {
	var d time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if !contains(coreNames, s.Name) && !contains(layerNames, s.Name) {
			continue
		}
		outer := true
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if n := t.spans[p].Name; contains(coreNames, n) || contains(layerNames, n) {
				outer = false
				break
			}
		}
		if outer {
			d += s.dur
		}
	}
	return float64(d) / float64(time.Millisecond)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// writeSpans writes the recorded spans as JSON in start order.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
