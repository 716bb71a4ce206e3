// Command apex drives the APEX design-space exploration flow from the
// command line:
//
//	apex apps                       list the benchmark applications
//	apex analyze  [-top N] <app>    mine + MIS-rank an application's subgraphs
//	apex analyze  -dot <app>        print the app's dataflow graph (Graphviz)
//	apex generate [-k N] <app>      generate a specialized PE (PE 1 + top N subgraphs)
//	apex evaluate [-k N] <app>      full backend: map, pipeline, place, route, report
//	apex simulate [-k N] <app>      ...and validate on the cycle-accurate fabric simulator
//	apex sweep    [axis flags]      design-space sweep: sharded, resumable, cached
//	apex compile  [-k N] <file>     compile a kernel written in the frontend language
//
// Flags come before the positional argument. Applications: camera,
// harris, gaussian, unsharp, resnet, mobilenet, laplacian, stereo, fast.
//
// Every subcommand also accepts the shared observability flags: -v/-vv
// and -log-format for diagnostics, -trace/-trace-tree/-metrics to export
// spans and metrics, and -cpuprofile/-memprofile/-pprof for profiling.
//
// Exit status: 0 on success, 1 on a hard error (bad usage, evaluation
// failure, cancellation), 2 when the run completed but place-and-route
// degraded to the analytical estimate. SIGINT cancels the run cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/tech"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apex: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		log.Print(err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run dispatches the subcommand and returns the process exit code: 0 for
// success, 1 for hard errors (paired with a non-nil error), 2 when the
// evaluation completed with a degraded place-and-route result.
func run(ctx context.Context, args []string) (int, error) {
	if len(args) < 1 {
		return 1, usageErr()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "apps":
		listApps()
		return 0, nil
	case "analyze":
		return 0, analyze(ctx, rest)
	case "generate":
		return 0, generate(ctx, rest)
	case "evaluate":
		return evaluate(ctx, rest)
	case "compile":
		return 0, compileKernel(ctx, rest)
	case "simulate":
		return simulate(ctx, rest)
	case "sweep":
		return sweepCmd(ctx, rest)
	default:
		return 1, usageErr()
	}
}

func usageErr() error {
	return errors.New("usage: apex {apps|analyze|generate|evaluate|simulate|sweep|compile} [args]")
}

// withTimeout applies an optional wall-clock budget to ctx.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// setupObs builds the subcommand's observability bundle from its parsed
// flags and attaches it to ctx. The returned done flushes exports and
// logs (rather than fails on) flush errors — profiling output must not
// flip a successful run's exit status.
func setupObs(ctx context.Context, of *obs.Flags) (context.Context, func(), error) {
	o, cleanup, err := of.Setup(os.Stderr)
	if err != nil {
		return ctx, nil, err
	}
	done := func() {
		if err := cleanup(); err != nil {
			log.Print(err)
		}
	}
	return o.Context(ctx), done, nil
}

// simulate runs the full backend for an application and then validates
// the placed design on the cycle-accurate fabric simulator against the
// application's reference semantics — the flow's VCS-simulation step.
// Vectors are independent, so -j validates them on a bounded worker pool.
func simulate(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	k := fs.Int("k", 3, "subgraphs to merge into the PE")
	vectors := fs.Int("vectors", 20, "random input vectors to check")
	j := fs.Int("j", cliutil.DefaultWorkers(), "parallel validation workers")
	timeout := fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
	var of obs.Flags
	of.Register(fs)
	app, err := appArg(fs, args)
	if err != nil {
		return 1, err
	}
	workers, err := cliutil.Workers("-j", *j)
	if err != nil {
		return 1, err
	}
	ctx, obsDone, err := setupObs(ctx, &of)
	if err != nil {
		return 1, err
	}
	defer obsDone()
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	fw := core.New()
	an, err := fw.Analyze(ctx, app)
	if err != nil {
		return 1, err
	}
	v, err := fw.GeneratePE(ctx, app.Name+"_pe", app.UsedOps(), core.SelectPatterns(an, *k))
	if err != nil {
		return 1, err
	}
	r, err := fw.Evaluate(ctx, app, v, core.FullEval)
	if err != nil {
		return 1, err
	}
	peLat := v.Pipelined.Stages
	if peLat < 1 {
		peLat = 1
	}
	lats := cgra.OutputLatencies(r.Balanced, peLat)
	maxLat := 0
	for _, l := range lats {
		if l > maxLat {
			maxLat = l
		}
	}
	// Draw every vector's stimuli from the serial RNG up front so -j
	// cannot change them, then fan the checks out.
	type vecCase struct {
		inputs map[string][]uint16
		evalIn map[string]uint16
	}
	cases := make([]vecCase, *vectors)
	rng := rand.New(rand.NewSource(1))
	for vec := range cases {
		c := vecCase{inputs: map[string][]uint16{}, evalIn: map[string]uint16{}}
		for _, in := range app.Graph.Inputs() {
			n := app.Graph.Nodes[in]
			val := uint16(rng.Intn(256))
			if n.Op == ir.OpInputB {
				val &= 1
			}
			c.inputs[n.Name] = []uint16{val}
			c.evalIn[n.Name] = val
		}
		cases[vec] = c
	}
	errs := make([]error, len(cases))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for vec := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func(vec int) {
			defer wg.Done()
			defer func() { <-sem }()
			c := cases[vec]
			want, err := app.Graph.Eval(c.evalIn)
			if err != nil {
				errs[vec] = err
				return
			}
			trace, err := cgra.Simulate(ctx, r.Balanced, peLat, c.inputs, maxLat+4)
			if err != nil {
				errs[vec] = err
				return
			}
			for name, w := range want {
				series := trace[name]
				if got := series[len(series)-1]; got != w {
					errs[vec] = fmt.Errorf("output %s: fabric %d != reference %d", name, got, w)
					return
				}
			}
		}(vec)
	}
	wg.Wait()
	for vec, err := range errs {
		if err != nil {
			return 1, fmt.Errorf("vector %d: %w", vec, err)
		}
	}
	fmt.Printf("%s on %s: %d PEs placed and routed; fabric simulation matches the\n", app.Name, v.Name, r.NumPEs)
	fmt.Printf("reference on %d random vectors (latency %d cycles, period %.0f ps)\n", *vectors, maxLat, r.PeriodPS)
	return 0, nil
}

// compileKernel compiles a user-written kernel (see internal/frontend),
// maps it onto the baseline PE, and reports the result — the entry point
// for bringing custom applications to the framework.
func compileKernel(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	k := fs.Int("k", 2, "subgraphs to merge into a specialized PE (0 = baseline only)")
	var of obs.Flags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("expected one kernel file (see internal/frontend for the language)")
	}
	ctx, obsDone, err := setupObs(ctx, &of)
	if err != nil {
		return err
	}
	defer obsDone()
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	g, err := frontend.Compile(fs.Arg(0), string(src))
	if err != nil {
		return err
	}
	raw := g.ComputeNodeCount()
	g = ir.Optimize(g)
	fmt.Printf("compiled %s: %d nodes, %d compute ops (%d before optimization), %d inputs, %d outputs\n",
		fs.Arg(0), g.NumNodes(), g.ComputeNodeCount(), raw, len(g.Inputs()), len(g.Outputs()))

	app := &apps.App{Name: "kernel", Graph: g, Unroll: 1, TotalOutputs: 1 << 20}
	fw := core.New()
	an, err := fw.Analyze(ctx, app)
	if err != nil {
		return err
	}
	fmt.Printf("mined %d frequent subgraphs\n", len(an.Ranked))
	var v *core.PEVariant
	if *k > 0 && len(an.Ranked) > 0 {
		v, err = fw.GeneratePE(ctx, "kernel_pe", app.UsedOps(), core.SelectPatterns(an, *k))
	} else {
		v, err = fw.BaselinePE(ctx)
	}
	if err != nil {
		return err
	}
	r, err := fw.Evaluate(ctx, app, v, core.PostMapping)
	if err != nil {
		return err
	}
	fmt.Printf("mapped onto %d PEs (%s, core %.1f um^2)\n", r.NumPEs, v.Name, r.PECoreArea)
	return nil
}

func appArg(fs *flag.FlagSet, args []string) (*apps.App, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, errors.New("expected one application name; run 'apex apps'")
	}
	return apps.ByName(fs.Arg(0))
}

func listApps() {
	for _, a := range apps.All() {
		analyzed := "analyzed"
		if !a.Seen {
			analyzed = "unseen  "
		}
		fmt.Printf("%-10s %-3s %s  compute=%d mem=%d io=%d\n    %s\n",
			a.Name, a.Domain, analyzed, a.ComputeOps(), a.MemNodes(), a.IONodes(), a.Description)
	}
}

func analyze(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	top := fs.Int("top", 10, "number of patterns to print")
	dot := fs.Bool("dot", false, "print the application dataflow graph in Graphviz DOT instead")
	j := fs.Int("j", cliutil.DefaultWorkers(), "mining worker goroutines (1 = serial; output is identical at any count)")
	var of obs.Flags
	of.Register(fs)
	app, err := appArg(fs, args)
	if err != nil {
		return err
	}
	workers, err := cliutil.Workers("-j", *j)
	if err != nil {
		return err
	}
	ctx, obsDone, err := setupObs(ctx, &of)
	if err != nil {
		return err
	}
	defer obsDone()

	if *dot {
		fmt.Print(app.Graph.DOT())
		return nil
	}
	fw := core.New()
	fw.MineWorkers = workers
	an, err := fw.Analyze(ctx, app)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d frequent subgraphs (compute view: %d nodes)\n",
		app.Name, len(an.Ranked), an.View.NumNodes())
	for i, r := range an.Ranked {
		if i >= *top {
			break
		}
		fmt.Printf("%3d. MIS=%-4d occurrences=%-4d size=%d  %s\n",
			i+1, r.MISSize, len(r.Occurrences), r.Pattern.ComputeSize(), r.Pattern.Code)
	}
	return nil
}

func generate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	k := fs.Int("k", 3, "number of subgraphs to merge into the PE")
	var of obs.Flags
	of.Register(fs)
	app, err := appArg(fs, args)
	if err != nil {
		return err
	}
	ctx, obsDone, err := setupObs(ctx, &of)
	if err != nil {
		return err
	}
	defer obsDone()

	fw := core.New()
	m := tech.Default()
	an, err := fw.Analyze(ctx, app)
	if err != nil {
		return err
	}
	chosen := core.SelectPatterns(an, *k)
	v, err := fw.GeneratePE(ctx, fmt.Sprintf("%s_pe", app.Name), app.UsedOps(), chosen)
	if err != nil {
		return err
	}
	c := v.Spec.DP.Count()
	fmt.Printf("generated %s: %d FUs, %d consts, %d inputs, %d muxes\n",
		v.Name, c.FUs, c.Consts, c.Inputs, c.Muxes)
	fmt.Printf("  core area    %.1f um^2 (baseline: %.1f)\n", v.CoreArea(m), m.BaselinePECore().Area)
	fmt.Printf("  pipeline     %d stages, %.0f ps period\n", v.Pipelined.Stages, v.Pipelined.PeriodPS)
	fmt.Printf("  config word  %d bits\n", v.Spec.ConfigBits())
	rules := v.RuleSet()
	fmt.Printf("  rewrite rules %d (%d patterns unimplementable)\n", len(rules.Rules), len(rules.Failed))
	for _, r := range rules.Rules {
		if r.Size > 1 {
			fmt.Printf("    complex rule %-24s covers %d ops, %d inputs\n",
				r.Name, r.Size, len(r.InputPorts)+len(r.BitPorts))
		}
	}
	return nil
}

func evaluate(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	k := fs.Int("k", 3, "number of subgraphs to merge into the PE")
	baseline := fs.Bool("baseline", false, "evaluate on the general-purpose baseline PE instead")
	fast := fs.Bool("fast", false, "skip place-and-route")
	seeds := fs.Int("seeds", 1, "placement seed portfolio width: anneal K seeds concurrently, keep the lowest-wirelength result (1 = single seed)")
	timeout := fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")
	var of obs.Flags
	of.Register(fs)
	app, err := appArg(fs, args)
	if err != nil {
		return 1, err
	}
	ctx, obsDone, err := setupObs(ctx, &of)
	if err != nil {
		return 1, err
	}
	defer obsDone()
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	fw := core.New()
	fw.PlaceSeeds = *seeds
	opt := core.FullEval
	if *fast {
		opt = core.PostMapping
	}
	var v *core.PEVariant
	if *baseline {
		v, err = fw.BaselinePE(ctx)
	} else {
		var an *core.Analysis
		an, err = fw.Analyze(ctx, app)
		if err != nil {
			return 1, err
		}
		v, err = fw.GeneratePE(ctx, fmt.Sprintf("%s_pe", app.Name), app.UsedOps(), core.SelectPatterns(an, *k))
	}
	if err != nil {
		return 1, err
	}
	r, err := fw.Evaluate(ctx, app, v, opt)
	if err != nil {
		return 1, err
	}
	fmt.Printf("%s on %s\n", app.Name, v.Name)
	fmt.Printf("  utilization  %d PEs, %d mems, %d RFs, %d IOs, %d regs, %d routing tiles\n",
		r.NumPEs, r.NumMems, r.NumRFs, r.NumIOs, r.NumRegs, r.RoutingTiles)
	fmt.Printf("  area         PE %.0f + SB %.0f + CB %.0f + MEM %.0f + RF %.0f = %.0f um^2\n",
		r.TotalPEArea, r.SBArea, r.CBArea, r.MemArea, r.RFArea, r.TotalArea)
	fmt.Printf("  energy/out   PE %.3f + SB %.3f + CB %.3f + MEM %.3f = %.3f pJ\n",
		r.PEEnergy, r.SBEnergy, r.CBEnergy, r.MemEnergy, r.TotalEnergy)
	fmt.Printf("  timing       %.0f ps period, %d cycles latency, %.3f ms runtime\n",
		r.PeriodPS, r.LatencyCyc, r.RuntimeMS)
	fmt.Printf("  perf         %.2f outputs/ms/mm^2\n", r.PerfPerMM2)
	if r.Degraded {
		fmt.Printf("  DEGRADED     %s (after %d PnR attempts; metrics are the analytical estimate)\n",
			r.DegradedReason, r.PnRAttempts)
		return 2, nil
	}
	return 0, nil
}
