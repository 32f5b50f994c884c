// Command vpdump renders control-flow graphs as Graphviz DOT: a whole
// function, a phase's region temperatures superimposed on it (the paper's
// Figure 3 view), or an extracted package with its exits and links.
//
// Usage:
//
//	vpdump -bench m88ksim -fn simulate                 # plain CFG
//	vpdump -bench m88ksim -fn simulate -phase 0        # region temperatures
//	vpdump -bench m88ksim -pkg 0                       # extracted package
//	vpdump -asm prog.vpasm -fn main -phase 0
//	vpdump -bench m88ksim -drift                       # self-baselined drift report
//	vpdump -bench m88ksim -drift -driftshift           # ...with an induced phase shift
//
// Pipe the DOT output to `dot -Tsvg`. -drift prints a text report
// instead: the program is profiled once, half of the detected hot spots
// (interleaved) build a phase database whose snapshot becomes the drift
// baseline (what vpackd does at each repack), and the other half is
// replayed through a drift tracker sized by the shared
// -driftwindow/-driftring knobs. A stable replay keeps the divergence
// and bias-flip axes near zero (windows straddling the program's own
// phase transitions may still cross the 30% filter rule); -driftshift
// replays a synthetically phase-shifted stream and every axis rises —
// the offline twin of `vpbench -daemon URL -phaseshift`.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cas"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// logger carries the profiling/stage diagnostics on stderr (stdout
// carries the DOT graph); -log selects its format, -q silences it.
var logger = slog.New(slog.DiscardHandler)

// logProfileStats reports the profiling run.
func logProfileStats(st core.ProfileStats, phases int) {
	logger.Info("profile",
		"insts", st.Insts, "branches", st.Branches,
		"detections", st.Detections, "phases", phases)
}

// logStageStats reports per-stage wall times and per-phase skip reasons
// gathered during an observed pipeline run.
func logStageStats(t *obs.Trace) {
	byName := make(map[string]time.Duration)
	for _, st := range t.SpanTotals() {
		byName[st.Name] = st.Total
	}
	// Shares are of the summed stage wall time (the suite/pipeline wrapper
	// spans are excluded as they would double-count their children), so the
	// profile-vs-evaluate balance reads directly off the log line.
	var total time.Duration
	for _, name := range obs.Stages() {
		if d, ok := byName[name]; ok && name != obs.StageSuite && name != obs.StagePipeline {
			total += d
		}
	}
	attrs := make([]any, 0, 2*len(byName))
	for _, name := range obs.Stages() {
		if d, ok := byName[name]; ok && name != obs.StageSuite && name != obs.StagePipeline {
			v := d.Round(time.Microsecond).String()
			if total > 0 {
				v = fmt.Sprintf("%v (%.1f%%)", d.Round(time.Microsecond), 100*float64(d)/float64(total))
			}
			attrs = append(attrs, name, v)
		}
	}
	logger.Info("stages", attrs...)
	// Execution-engine counters (block cache + superblock tier) from the
	// timed evaluation runs, when the run recorded any.
	engine := make([]any, 0, 2*7)
	for _, name := range obs.EngineCounters() {
		if v, ok := t.Metrics.Counters[name]; ok {
			engine = append(engine, name, v)
		}
	}
	if len(engine) > 0 {
		logger.Info("engine", engine...)
	}
	for _, e := range t.Events {
		if e.Kind == obs.PhaseSkipped.String() {
			logger.Warn("phase skipped", "phase", e.Phase, "reason", e.Name)
		}
	}
}

func main() {
	var (
		asmPath    = flag.String("asm", "", "dump a hand-written VPIR assembly file")
		bench      = flag.String("bench", "m88ksim", "benchmark name")
		input      = flag.String("input", "A", "input name")
		fnName     = flag.String("fn", "", "function to dump (default: hottest region function)")
		phase      = flag.Int("phase", -1, "overlay this phase's region temperatures")
		pkgIdx     = flag.Int("pkg", -1, "dump the Nth extracted package instead")
		driftOn    = flag.Bool("drift", false, "print a self-baselined drift report instead of DOT")
		driftShift = flag.Bool("driftshift", false, "with -drift: phase-shift the replayed half so the score rises")
		driftf     = cliflags.DriftFlags(flag.CommandLine)
		storeDir   = cliflags.StoreFlag(flag.CommandLine)
		logf       = cliflags.LogFlags(flag.CommandLine, "suppress profiling/stage diagnostics (same as -log off)")
	)
	flag.Parse()

	lg, err := telemetry.NewLogger(logf.Mode(), os.Stderr, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpdump:", err)
		os.Exit(2)
	}
	logger = lg

	var p *prog.Program
	if *asmPath != "" {
		src, err := os.ReadFile(*asmPath)
		if err != nil {
			fatal(err)
		}
		p, err = asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
	} else {
		b, err := workload.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		in, err := b.InputByName(*input)
		if err != nil {
			fatal(err)
		}
		p = b.Build(in)
	}

	cfg := core.ScaledConfig()
	if *driftOn {
		name := *bench
		if *asmPath != "" {
			name = *asmPath
		}
		if err := driftReport(os.Stdout, cfg, p, name, driftf.Config(), *driftShift); err != nil {
			fatal(err)
		}
		return
	}
	// -store reuses a persisted profile for the -pkg pipeline run (and
	// writes one through on a miss), so repeated dumps of the same
	// benchmark skip the profiling pass.
	var store *cas.Store
	if *storeDir != "" {
		s, err := cas.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		store = s
	}
	if *pkgIdx >= 0 {
		rec := obs.NewRecorder()
		out, err := cas.PipelineObserved(store, cfg, cpu.DefaultConfig(), p, rec)
		if out != nil {
			logProfileStats(core.ProfileStats{
				Insts: out.ProfileInsts, Branches: out.ProfileBranches, Detections: out.Detections,
			}, len(out.DB.Phases))
			// A timed evaluation run feeds the evaluate span and the
			// block-cache/superblock engine counters into the stage view.
			if err == nil {
				if _, everr := out.EvaluateObserved(cpu.DefaultConfig(), 0, rec); everr != nil {
					logger.Warn("evaluation failed", "err", everr)
				}
			}
			logStageStats(rec.Export())
			if out.SkippedPhases > 0 {
				logger.Warn("phases skipped", "count", out.SkippedPhases)
			}
		}
		if err != nil {
			fatal(err)
		}
		if *pkgIdx >= len(out.Pack.Packages) {
			fatal(fmt.Errorf("only %d packages", len(out.Pack.Packages)))
		}
		pk := out.Pack.Packages[*pkgIdx]
		fmt.Print(DumpFunc(pk.Fn, nil))
		return
	}

	var reg *region.Region
	if *phase >= 0 {
		img, err := p.Linearize()
		if err != nil {
			fatal(err)
		}
		pa, err := core.ProfileStage(cfg, img, nil)
		if err != nil {
			fatal(err)
		}
		db := pa.DB()
		logProfileStats(pa.Stats, len(db.Phases))
		if *phase >= len(db.Phases) {
			fatal(fmt.Errorf("only %d phases detected", len(db.Phases)))
		}
		reg, err = region.Identify(cfg.Region, img, db.Phases[*phase])
		if err != nil {
			fatal(err)
		}
	}

	fn := p.FuncByName(*fnName)
	if fn == nil && reg != nil {
		if funcs := reg.HotFuncs(p); len(funcs) > 0 {
			fn = funcs[0]
		}
	}
	if fn == nil {
		fn = p.Main
	}
	fmt.Print(DumpFunc(fn, reg))
}

// DumpFunc renders one function's CFG as DOT, coloring blocks and arcs by
// region temperature when a region is supplied.
func DumpFunc(fn *prog.Func, reg *region.Region) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  node [shape=box, fontname=monospace];\n", fn.Name)
	blockColor := func(b *prog.Block) string {
		if reg == nil {
			return "white"
		}
		switch reg.BlockTemp[b] {
		case region.Hot:
			return "tomato"
		case region.Cold:
			return "lightblue"
		default:
			return "lightgray"
		}
	}
	arcAttr := func(k region.ArcKey) string {
		label := "F"
		if k.Taken {
			label = "T"
		}
		if reg == nil {
			return fmt.Sprintf("label=%q", label)
		}
		switch reg.ArcTemp[k] {
		case region.Hot:
			return fmt.Sprintf("label=%q, color=red, penwidth=2", label)
		case region.Cold:
			return fmt.Sprintf("label=%q, color=blue, style=dashed", label)
		default:
			return fmt.Sprintf("label=%q, color=gray", label)
		}
	}
	for _, b := range fn.Blocks {
		label := fmt.Sprintf("b%d (%d insts)\\n%s", b.ID, len(b.Insts), b.Kind)
		if len(b.ExitConsumes) > 0 {
			label += fmt.Sprintf("\\nconsumes %d regs", len(b.ExitConsumes))
		}
		fmt.Fprintf(&sb, "  b%d [label=%q, style=filled, fillcolor=%s];\n", b.ID, label, blockColor(b))
	}
	escape := func(dst *prog.Block, attr string) string {
		if dst.Fn == fn {
			return fmt.Sprintf("b%d [%s]", dst.ID, attr)
		}
		// Cross-function arc: render a distinct terminal node.
		return fmt.Sprintf("%q [%s, style=dotted]", dst.String(), attr)
	}
	for _, b := range fn.Blocks {
		switch b.Kind {
		case prog.TermFall:
			fmt.Fprintf(&sb, "  b%d -> %s;\n", b.ID, escape(b.Next, arcAttr(region.ArcKey{From: b, Taken: false})))
		case prog.TermBranch:
			fmt.Fprintf(&sb, "  b%d -> %s;\n", b.ID, escape(b.Taken, arcAttr(region.ArcKey{From: b, Taken: true})))
			fmt.Fprintf(&sb, "  b%d -> %s;\n", b.ID, escape(b.Next, arcAttr(region.ArcKey{From: b, Taken: false})))
		case prog.TermCall:
			fmt.Fprintf(&sb, "  b%d -> %s;\n", b.ID, escape(b.Next, arcAttr(region.ArcKey{From: b, Taken: false})))
			fmt.Fprintf(&sb, "  b%d -> %q [style=dotted, label=\"call\"];\n", b.ID, b.Callee.Name)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpdump:", err)
	os.Exit(1)
}
