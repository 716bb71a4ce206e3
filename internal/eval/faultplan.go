package eval

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/memo"
)

// FaultKind selects what an injected fault does when it fires.
type FaultKind int

const (
	// FaultError makes the stage return an error (Err, or a generic
	// fault.ErrInjected when Err is nil).
	FaultError FaultKind = iota
	// FaultPanic makes the stage panic; the harness's recover boundary
	// must convert it to a typed per-cell error.
	FaultPanic
	// FaultDelay stalls the stage for Delay before letting it proceed —
	// the way to exercise per-cell deadlines deterministically.
	FaultDelay
	// FaultHook runs the user-supplied Hook and uses its return value.
	FaultHook
)

// FaultSpec is one planned fault: at Stage, for Cell, do Kind.
type FaultSpec struct {
	// Stage is where the fault fires: one of the backend stages "map",
	// "balance", "place", "route", or "evaluate" (the harness-level entry
	// of the whole cell). Empty matches every stage.
	Stage string
	// Cell is the "app|variant" pair the fault targets. Empty matches
	// every cell.
	Cell string
	Kind FaultKind
	// Err is the error FaultError injects; nil means a fault.ErrInjected
	// built from the stage and cell.
	Err error
	// Delay is how long FaultDelay stalls.
	Delay time.Duration
	// Hook is the FaultHook callback; it must be safe for concurrent use.
	Hook func(stage, cell string) error
	// Times bounds how often the fault fires; 0 means every time. A
	// budget of 2 on a "route" fault makes the ladder's third attempt
	// succeed — the canonical retry test.
	Times int
}

// FaultPlan is a deterministic fault-injection schedule keyed by pipeline
// stage and evaluation cell. Plans are built once before evaluation and
// then fired concurrently by the harness workers; the firing budget is
// mutex-guarded so a Times bound is exact even under -race contention.
//
// The zero value is an empty plan that never fires; (*FaultPlan)(nil) is
// likewise safe and inert.
type FaultPlan struct {
	mu    sync.Mutex
	specs []*faultEntry
}

type faultEntry struct {
	spec  FaultSpec
	fired int
}

// Inject adds a fault to the plan and returns the plan for chaining.
func (p *FaultPlan) Inject(spec FaultSpec) *FaultPlan {
	p.mu.Lock()
	p.specs = append(p.specs, &faultEntry{spec: spec})
	p.mu.Unlock()
	return p
}

// fire triggers the first matching armed fault for (stage, cell). It
// returns the injected error, panics, or sleeps according to the fault's
// kind; nil when no fault matches.
func (p *FaultPlan) fire(stage, cell string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	var hit *FaultSpec
	for _, e := range p.specs {
		if e.spec.Stage != "" && e.spec.Stage != stage {
			continue
		}
		if e.spec.Cell != "" && e.spec.Cell != cell {
			continue
		}
		if e.spec.Times > 0 && e.fired >= e.spec.Times {
			continue
		}
		e.fired++
		hit = &e.spec
		break
	}
	p.mu.Unlock()
	if hit == nil {
		return nil
	}
	switch hit.Kind {
	case FaultPanic:
		panic(fault.Injectedf("injected panic at %s (%s)", stage, cell)) // lint:allow-panic: exercises the recover boundary
	case FaultDelay:
		time.Sleep(hit.Delay)
		return nil
	case FaultHook:
		if hit.Hook == nil {
			return nil
		}
		return hit.Hook(stage, cell)
	default:
		if hit.Err != nil {
			return hit.Err
		}
		return fault.Injectedf("injected error at %s (%s)", stage, cell)
	}
}

// Failure is one affected evaluation cell in a keep-going run.
type Failure struct {
	Cell string // "app|variant|pnr|pipelined" evaluation key
	Kind string // "failed", "canceled", or "degraded"
	Err  string
}

// Report collects per-cell failures and degradations during a keep-going
// run. It deduplicates by cell (a memoized failure is observed once per
// caller but reported once) and is safe for concurrent use. The zero
// value is ready; (*Report)(nil) discards records.
type Report struct {
	mu    sync.Mutex
	m     map[string]Failure
	memos map[string]memo.Stats
}

// classify maps an evaluation error to a report kind.
func classify(err error) string {
	if errors.Is(err, fault.ErrCanceled) {
		return "canceled"
	}
	return "failed"
}

// record stores a failure once per cell and reports whether this call
// was the first sighting (so callers can log without repeating
// themselves for every memoized observer of the same cell).
func (r *Report) record(f Failure) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string]Failure{}
	}
	if _, ok := r.m[f.Cell]; ok {
		return false
	}
	r.m[f.Cell] = f
	return true
}

// SetMemoStats attaches the harness's memo-table statistics snapshot to
// the report (Harness.MemoStats at end of run).
func (r *Report) SetMemoStats(stats map[string]memo.Stats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.memos = stats
	r.mu.Unlock()
}

// MemoStats returns the attached memo-table statistics, keyed by table
// name ("analyses", "variants", "results"); nil when never set.
func (r *Report) MemoStats() map[string]memo.Stats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memos
}

// Len reports how many cells were affected.
func (r *Report) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// HasFailures reports whether any cell failed or was canceled (degraded
// cells completed with estimates and do not count as failures here, but
// they do appear in Snapshot and flip the suggested exit code).
func (r *Report) HasFailures() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.m {
		if f.Kind != "degraded" {
			return true
		}
	}
	return false
}

// Snapshot returns the affected cells sorted by cell key — a stable
// order, so keep-going reports are byte-identical across worker counts.
func (r *Report) Snapshot() []Failure {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Failure, 0, len(r.m))
	for _, f := range r.m {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// Table renders the report in the same renderable form as the figures,
// or nil when nothing was affected.
func (r *Report) Table() *Table {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	t := &Table{
		ID:      "Fault report",
		Title:   fmt.Sprintf("Cells affected during keep-going evaluation (%d)", len(snap)),
		Headers: []string{"Cell", "Kind", "Error"},
	}
	for _, f := range snap {
		t.Rows = append(t.Rows, []string{f.Cell, f.Kind, f.Err})
	}
	return t
}

// ExitCode suggests a process exit code: 0 for a clean run, 2 when any
// cell failed, was canceled, or degraded (partial results).
func (r *Report) ExitCode() int {
	if r.Len() == 0 {
		return 0
	}
	return 2
}
