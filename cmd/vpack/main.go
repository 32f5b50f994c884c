// Command vpack runs the full Vacuum Packing pipeline on one benchmark
// input and prints a detailed report: detected phases, identified regions,
// constructed packages with their links and launch points, and the timed
// original-vs-packed comparison.
//
// Usage:
//
//	vpack -bench perl -input A [-scale N] [-noinfer] [-nolink] [-v]
//	vpack -asm program.vpasm [-v]
//	vpack -bench perl -trace out.json   # JSON span/event/metric trace
//	vpack -bench perl -store .vpstore   # reuse/persist profiles across runs
//	vpack -bench perl -q                # only the coverage/speedup line
//	vpack -log json                     # diagnostics as JSON slog records
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/asm"
	"repro/internal/cas"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/obs"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// logger carries diagnostics (hints, trace-write failures); -log selects
// its format and -q silences it. The packing report itself stays on
// stdout.
var logger = slog.New(slog.DiscardHandler)

// tracing carries the optional -trace recorder; flush writes whatever has
// been recorded so far, so even a failed run leaves a usable trace.
var tracing struct {
	rec  *obs.Recorder
	path string
}

func flushTrace() {
	if tracing.rec == nil {
		return
	}
	f, err := os.Create(tracing.path)
	if err != nil {
		logger.Error("trace write failed", "err", err)
		return
	}
	defer f.Close()
	if err := tracing.rec.Export().WriteJSON(f); err != nil {
		logger.Error("trace write failed", "err", err)
	}
}

func main() {
	var (
		asmPath   = flag.String("asm", "", "run a hand-written VPIR assembly file instead of a benchmark")
		bench     = flag.String("bench", "perl", "benchmark name (see -list)")
		input     = flag.String("input", "A", "input name: A, B or C")
		scale     = flag.Int64("scale", 0, "override the input's iteration scale")
		noInfer   = flag.Bool("noinfer", false, "disable temperature inference")
		noLink    = flag.Bool("nolink", false, "disable package linking")
		dynL      = flag.Bool("dynlaunch", false, "use dynamic launch-point selection instead of static links")
		noOpt     = flag.Bool("noopt", false, "disable layout and rescheduling")
		verifyOn  = cliflags.VerifyFlag(flag.CommandLine)
		equivOn   = cliflags.EquivFlag(flag.CommandLine)
		list      = flag.Bool("list", false, "list benchmarks and exit")
		verbose   = flag.Bool("v", false, "per-phase and per-package detail")
		logf      = cliflags.LogFlags(flag.CommandLine, "print only the final coverage/speedup line (same as -log off for diagnostics)")
		tracePath = flag.String("trace", "", "write a JSON span/event/metric trace of the run to `file`")
		storeDir  = cliflags.StoreFlag(flag.CommandLine)
		machine   = cliflags.MachineFlags(flag.CommandLine)
	)
	flag.Parse()
	quiet := logf.Quiet()

	mc := cpu.DefaultConfig()
	if err := machine.Apply(&mc); err != nil {
		fmt.Fprintln(os.Stderr, "vpack:", err)
		os.Exit(2)
	}

	var o obs.Observer = obs.Nop{}
	if *tracePath != "" {
		tracing.rec = obs.NewRecorder()
		tracing.path = *tracePath
		o = tracing.rec
	}

	lg, err := telemetry.NewLogger(logf.Mode(), os.Stderr, tracing.rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpack:", err)
		os.Exit(2)
	}
	logger = lg

	if *list {
		for _, b := range workload.Ordered() {
			fmt.Printf("%-10s %-40s inputs:", b.Name, b.Paper)
			for _, in := range b.Inputs {
				fmt.Printf(" %s(x%d)", in.Name, in.Scale)
			}
			fmt.Println()
		}
		return
	}

	var p *prog.Program
	var title string
	if *asmPath != "" {
		src, err := os.ReadFile(*asmPath)
		if err != nil {
			fatal(err)
		}
		p, err = asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		title = *asmPath
	} else {
		b, err := workload.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		in, err := b.InputByName(*input)
		if err != nil {
			fatal(err)
		}
		if *scale > 0 {
			in.Scale = *scale
		}
		p = b.Build(in)
		title = fmt.Sprintf("%s/%s", b.Name, in.Name)
	}

	cfg := core.ScaledConfig()
	cfg.Region.EnableInference = !*noInfer
	cfg.Pack.EnableLinking = !*noLink
	cfg.Pack.DynamicLaunch = *dynL
	if *dynL {
		cfg.Pack.EnableLinking = false
	}
	cfg.EnableLayout = !*noOpt
	cfg.EnableSchedule = !*noOpt
	cfg.Verify = *verifyOn
	cfg.Equiv = *equivOn

	if !quiet {
		fmt.Printf("%s: %d funcs, %d blocks, %d static insts\n",
			title, len(p.Funcs), p.NumBlocks(), p.NumInsts())
	}

	// With -store, the pipeline reuses a persisted profile when one
	// matches this image and writes a fresh one through; the emitted
	// trace is identical either way (the golden-trace gate runs both).
	var store *cas.Store
	if *storeDir != "" {
		store, err = cas.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
	}

	out, err := cas.PipelineObserved(store, cfg, mc, p, o)
	if err != nil {
		if errors.Is(err, core.ErrNoPhases) || errors.Is(err, core.ErrNoPackages) {
			logger.Warn("the run may be too short for the detector; raise -scale")
		}
		fatal(err)
	}
	if !quiet {
		fmt.Printf("profile: %d insts, %d cond branches, %d raw detections -> %d phases (%d redundant, %d skipped)\n",
			out.ProfileInsts, out.ProfileBranches, out.Detections,
			len(out.DB.Phases), out.DB.Redundant, out.SkippedPhases)
	}

	if *verbose {
		for _, ph := range out.DB.Phases {
			fmt.Printf("  phase %d: %d branches, %d detections, exec weight %d\n",
				ph.ID, len(ph.Branches), ph.Detections, ph.TotalExec())
		}
		for _, r := range out.Regions {
			fmt.Printf("  region phase %d: %d profiled, %d hot blocks, +%d inferred hot, %d inferred cold, %d grown\n",
				r.PhaseID, r.ProfiledBranches, r.NumHot(), r.InferredHot, r.InferredCold, r.GrownBlocks)
		}
		for _, pk := range out.Pack.Packages {
			linked := 0
			for _, e := range pk.Exits {
				if e.Linked != nil {
					linked++
				}
			}
			fmt.Printf("  package %-24s root=%-12s blocks=%-4d branches=%-3d entries=%d exits=%d linked=%d inlines=%d\n",
				pk.Fn.Name, pk.Root.Name, len(pk.Fn.Blocks), pk.Branches,
				len(pk.Entries), len(pk.Exits), linked, pk.InlinedCalls)
		}
	}

	if *equivOn && !quiet {
		proved, fuzzed := 0, 0
		for _, c := range out.Equiv {
			proved += c.PathsProved
			if c.BudgetExceeded {
				fuzzed++
			}
		}
		fmt.Printf("equiv: %d packages proved equivalent (%d paths, %d budget-capped to differential fuzzing)\n",
			len(out.Equiv), proved, fuzzed)
	}

	if !quiet {
		fmt.Printf("packages: %d in %d groups, %d links, %d monitors, %d launch points\n",
			len(out.Pack.Packages), len(out.Pack.Groups), out.Pack.Links, out.Pack.Monitors, out.Pack.LaunchPoints)
		fmt.Printf("static: orig %d insts, +%d added (%.1f%%), %d selected (%.1f%%), replication %.2f\n",
			out.Pack.OrigInsts, out.Pack.AddedInsts, out.Pack.CodeGrowth()*100,
			out.Pack.SelectedInsts, out.Pack.SelectedFraction()*100, out.Pack.Replication())
	}

	ev, err := out.EvaluateObserved(mc, 0, o)
	if err != nil {
		fatal(err)
	}
	eq := "EQUIVALENT"
	if !ev.Equivalent {
		eq = "DIVERGED (BUG)"
	}
	if !quiet {
		fmt.Printf("timed: base %d cycles (IPC %.2f) vs packed %d cycles (IPC %.2f)\n",
			ev.Base.Cycles, ev.Base.IPC(), ev.Packed.Cycles, ev.Packed.IPC())
	}
	fmt.Printf("coverage %.1f%%  speedup %.3f  %s\n", ev.Coverage*100, ev.Speedup, eq)

	if !quiet {
		cz := out.DB.Categorize()
		fmt.Printf("branch categories (dynamic-weighted):")
		for c := phasedb.Category(0); c < phasedb.NumCategories; c++ {
			fmt.Printf(" %s=%.1f%%", c, cz.Fraction(c)*100)
		}
		fmt.Println()
	}
	flushTrace()
}

func fatal(err error) {
	flushTrace()
	fmt.Fprintln(os.Stderr, "vpack:", err)
	if errors.Is(err, core.ErrVerifyFailed) {
		os.Exit(3)
	}
	if errors.Is(err, core.ErrNotEquivalent) {
		for _, ce := range equiv.Counterexamples(err) {
			fmt.Fprintln(os.Stderr, "vpack: counterexample:", ce.String())
		}
		os.Exit(4)
	}
	os.Exit(1)
}
