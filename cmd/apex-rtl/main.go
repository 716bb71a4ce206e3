// Command apex-rtl emits Verilog for an APEX-generated PE (and the CGRA
// top-level skeleton):
//
//	apex-rtl -app camera -k 3          # specialized PE for an application
//	apex-rtl -baseline                 # the general-purpose baseline PE
//	apex-rtl -app camera -top          # also emit the 32x16 CGRA top
//
// Exit status: 0 on success, 1 on any error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rtl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apex-rtl: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	appName := flag.String("app", "", "application to specialize for")
	k := flag.Int("k", 3, "subgraphs to merge")
	baseline := flag.Bool("baseline", false, "emit the baseline PE instead")
	top := flag.Bool("top", false, "also emit the CGRA top module")
	tb := flag.Bool("tb", false, "also emit a self-checking testbench for the largest rule")
	j := flag.Int("j", cliutil.DefaultWorkers(), "mining worker goroutines (1 = serial; output is identical at any count)")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	workers, err := cliutil.Workers("-j", *j)
	if err != nil {
		return err
	}

	o, obsCleanup, err := of.Setup(os.Stderr)
	if err != nil {
		return err
	}
	ctx := o.Context(context.Background())

	fw := core.New()
	fw.MineWorkers = workers
	var v *core.PEVariant
	switch {
	case *baseline:
		v, err = fw.BaselinePE(ctx)
	case *appName != "":
		var a *apps.App
		a, err = apps.ByName(*appName)
		if err == nil {
			var an *core.Analysis
			an, err = fw.Analyze(ctx, a)
			if err == nil {
				v, err = fw.GeneratePE(ctx, a.Name+"_pe", a.UsedOps(), core.SelectPatterns(an, *k))
			}
		}
	default:
		return errors.New("need -app <name> or -baseline")
	}
	if err != nil {
		return err
	}

	src := rtl.EmitPE(v.Name, v.Spec, v.Pipelined)
	if err := rtl.Lint(src); err != nil {
		return fmt.Errorf("emitted Verilog failed lint: %w", err)
	}
	fmt.Print(src)
	if *top {
		f := fw.Fabric
		for _, section := range []string{
			rtl.EmitPETile(v.Name, v.Spec, f.Tracks16),
			rtl.EmitMemTile(f.Tracks16),
			rtl.EmitCGRATop("cgra_top", f.W, f.H, f.MemColumnStride, f.Tracks16, v.Name),
		} {
			if err := rtl.Lint(section); err != nil {
				return fmt.Errorf("emitted Verilog failed lint: %w", err)
			}
			fmt.Print("\n")
			fmt.Print(section)
		}
	}
	if *tb {
		// The rule set is sorted complex-first; emit a testbench for the
		// most interesting rule.
		rules := v.RuleSet().Rules
		if len(rules) == 0 {
			return errors.New("no rules to test")
		}
		bench, err := rtl.EmitTestbench(v.Name, rules[0], 32, 1)
		if err != nil {
			return err
		}
		if err := rtl.Lint(bench); err != nil {
			return fmt.Errorf("testbench failed lint: %w", err)
		}
		fmt.Print("\n")
		fmt.Print(bench)
	}
	fmt.Fprintf(os.Stderr, "emitted %s: %d config bits, %d pipeline stages\n",
		v.Name, v.Spec.ConfigBits(), v.Pipelined.Stages)
	return obsCleanup()
}
