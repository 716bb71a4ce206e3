// Command apex-eval regenerates every table and figure of the APEX
// paper's evaluation section and prints them as Markdown. Use -fast to
// skip place-and-route (post-mapping numbers only, runs in seconds);
// the default full run places and routes every design on the 32x16
// fabric. -j N evaluates independent cells on N workers (default
// GOMAXPROCS); the printed tables are byte-identical for every N.
//
// Fault tolerance: -timeout bounds the whole run and -cell-timeout
// bounds each evaluation cell; SIGINT cancels cleanly. With -keep-going
// a failed or timed-out cell is reported and skipped instead of
// aborting the run — unaffected tables print exactly as in a clean run,
// a fault report lists the affected cells, and the process exits 2.
//
// Observability: the run always measures itself and prints a per-stage
// cost summary plus memo-cache statistics to stderr (-quiet suppresses
// both and the progress line). -trace writes a Chrome trace_event JSON
// file (load it in chrome://tracing or Perfetto), -trace-tree the span
// tree as text, -metrics the metrics registry as JSON. -v/-vv raise
// log verbosity, -log-format selects text or JSON diagnostics, and
// -cpuprofile/-memprofile/-pprof hook the standard profilers.
//
// Exit status: 0 clean, 1 hard error, 2 completed with degraded,
// failed, or canceled cells.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apex-eval: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx)
	stop()
	if err != nil {
		log.Print(err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(ctx context.Context) (int, error) {
	fast := flag.Bool("fast", false, "skip place-and-route (post-mapping only)")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. 'table2,fig13')")
	jsonPath := flag.String("json", "", "also write all results as JSON to this file")
	j := flag.Int("j", cliutil.DefaultWorkers(), "parallel evaluation workers (1 = serial; output is identical either way)")
	seeds := flag.Int("seeds", 1, "placement seed portfolio width: anneal K seeds per placement, keep the lowest-wirelength result (1 = single seed; output is worker-count-invariant for any K)")
	keepGoing := flag.Bool("keep-going", false, "report failed cells and continue instead of aborting")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for the run (0 = none)")
	cellTimeout := flag.Duration("cell-timeout", 0, "deadline for each evaluation cell (0 = none)")
	quiet := flag.Bool("quiet", false, "suppress the progress line and the stderr cost summary")
	cacheDir := flag.String("cache-dir", "", "persistent content-addressed result cache directory; warm runs reload analyses, variants, and results instead of recomputing ('' = in-memory only)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cache size budget; oldest entries pruned past it (0 = unbounded)")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	workers, err := cliutil.Workers("-j", *j)
	if err != nil {
		return 1, err
	}

	// apex-eval always measures itself: the tracer and registry exist even
	// without export flags, so the per-stage cost summary can print.
	of.ForceObs = true
	o, obsCleanup, err := of.Setup(os.Stderr)
	if err != nil {
		return 1, err
	}
	ctx = o.Context(ctx)

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	h := eval.NewHarness()
	h.FastMode = *fast
	h.Workers = workers
	h.FW.MineWorkers = workers
	h.FW.PlaceSeeds = *seeds
	h.KeepGoing = *keepGoing
	h.CellTimeout = *cellTimeout
	h.SetObs(o)
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			return 1, err
		}
		if *cacheMax > 0 {
			st.SetMaxBytes(*cacheMax)
		}
		h.SetStore(st)
	}
	if !*quiet && obs.IsTerminal(os.Stderr) {
		h.Progress = obs.StartProgress(os.Stderr, 0)
		defer h.Progress.Stop()
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }
	var collected []*eval.Table
	var emitErr error
	emit := func(t *eval.Table, err error) {
		if emitErr != nil {
			return
		}
		if err != nil {
			// Under -keep-going the per-cell errors are already in
			// h.Report; skip the poisoned table unless the whole run was
			// canceled. Without it, the first failure aborts.
			if h.KeepGoing && ctx.Err() == nil {
				return
			}
			emitErr = err
			return
		}
		collected = append(collected, t)
		fmt.Println(t.Markdown())
	}

	start := time.Now()
	if sel("table1") {
		emit(eval.Table1(), nil)
	}
	if sel("fig3") {
		t, _, err := eval.Fig3(ctx)
		emit(t, err)
	}
	if sel("fig4") {
		t, _ := eval.Fig4(ctx)
		emit(t, nil)
	}
	if sel("fig5") {
		t, _ := eval.Fig5()
		emit(t, nil)
	}
	if sel("fig10") {
		t, err := h.Fig10(ctx)
		emit(t, err)
	}
	if sel("table2") || sel("fig11") {
		t, _, err := h.CameraLadder(ctx, !*fast)
		emit(t, err)
	}
	if sel("fig12") {
		t, _, err := h.Fig12(ctx)
		emit(t, err)
	}
	if sel("fig13") {
		t, _, err := h.Fig13(ctx)
		emit(t, err)
	}
	if sel("fig14") {
		t, _, err := h.Fig14(ctx)
		emit(t, err)
	}
	if !*fast && sel("fig15") {
		t, _, err := h.Fig15(ctx)
		emit(t, err)
	}
	if !*fast && sel("fig16") {
		t, _, err := h.Fig16(ctx)
		emit(t, err)
	}
	if !*fast && sel("table3") {
		t, _, err := h.Table3(ctx)
		emit(t, err)
	}
	if sel("fig17") {
		t, err := h.Fig17(ctx, !*fast)
		emit(t, err)
	}
	if sel("fig18") {
		t, err := h.Fig18(ctx, !*fast)
		emit(t, err)
	}
	if sel("ablations") {
		t, err := h.Ablations(ctx)
		emit(t, err)
	}
	if rt := h.Report.Table(); rt != nil {
		collected = append(collected, rt)
		fmt.Println(rt.Markdown())
	}
	h.Report.SetMemoStats(h.MemoStats())
	if *jsonPath != "" {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	if emitErr != nil {
		obsCleanup() // best effort: flush profiles and trace exports
		return 1, emitErr
	}
	h.Progress.Stop()
	if !*quiet {
		if o.Tracer != nil {
			fmt.Fprintln(os.Stderr, "per-stage cost summary:")
			o.Tracer.WriteStageSummary(os.Stderr)
		}
		fmt.Fprintln(os.Stderr, "memo caches:")
		for _, name := range []string{"analyses", "selections", "variants", "results", "designs", "layouts", "generated"} {
			s := h.Report.MemoStats()[name]
			fmt.Fprintf(os.Stderr, "  %-10s %d lookups: %d hits, %d coalesced, %d misses, %d panics\n",
				name, s.Lookups(), s.Hits, s.Coalesced, s.Misses, s.Panics)
		}
		if st := h.Store(); st != nil {
			s := st.Stats()
			bytes, entries := st.DiskBytes()
			fmt.Fprintf(os.Stderr, "persistent cache (%s):\n", st.Dir())
			fmt.Fprintf(os.Stderr, "  %d hits, %d misses, %d corrupt recomputed, %d puts (%d failed), %d entries / %d bytes on disk\n",
				s.Hits, s.Misses, s.Corrupt, s.Puts, s.PutErrs, entries, bytes)
			counts := st.KindCounts()
			for _, kind := range store.SortedKinds(counts) {
				ks := counts[kind]
				fmt.Fprintf(os.Stderr, "  %-9s %d entries / %d bytes\n", kind, ks.Entries, ks.Bytes)
			}
		}
	}
	if err := obsCleanup(); err != nil {
		return 1, err
	}
	fmt.Fprintf(os.Stderr, "apex-eval completed in %s\n", time.Since(start).Round(time.Millisecond))
	return h.Report.ExitCode(), nil
}
