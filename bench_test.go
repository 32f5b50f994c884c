// Benchmarks that regenerate the paper's evaluation, one per table and
// figure (run `go test -bench=. -benchmem`), plus ablation benches for the
// design choices DESIGN.md calls out. Custom metrics carry the reproduced
// numbers: coverage%, speedup-x, growth%, selected%.
//
// The full-suite regeneration lives in cmd/vpbench; these benches use
// representative subsets so the whole run stays in benchmark-friendly time.
package vacuumpack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hsd"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// buildInput returns a freshly built program for a benchmark's first input
// at scale 1.
func buildInput(b *testing.B, name string) *prog.Program {
	b.Helper()
	bench, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	return bench.Build(in)
}

// figureSubset is the representative benchmark set used by the per-figure
// benches: a linking-dominated shape (m88ksim), a shared-dispatcher shape
// (perl), a contention shape (vpr) and a disjoint-phases shape (ijpeg).
var figureSubset = []string{"m88ksim", "perl", "vpr", "ijpeg"}

// BenchmarkTable1Workloads measures building and functionally executing
// each workload — the substrate cost under everything else (Table 1).
func BenchmarkTable1Workloads(b *testing.B) {
	for _, bench := range workload.Ordered() {
		b.Run(bench.Name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				p := buildInput(b, bench.Name)
				img, err := p.Linearize()
				if err != nil {
					b.Fatal(err)
				}
				m := cpu.NewMachine(img)
				if err := m.Run(0, nil); err != nil {
					b.Fatal(err)
				}
				insts = m.InstCount
			}
			b.ReportMetric(float64(insts), "dyninsts")
		})
	}
}

// BenchmarkTable2Machine measures the cycle-level timing model's
// simulation throughput on the Table 2 configuration.
func BenchmarkTable2Machine(b *testing.B) {
	p := buildInput(b, "mcf")
	img, err := p.Linearize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		stats, _, err := cpu.RunTimed(cpu.DefaultConfig(), img, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simulated-insts/s")
}

// pipelineOnce runs the full pipeline + evaluation for one benchmark and
// variant, reporting coverage and speedup.
func pipelineOnce(b *testing.B, name string, v core.Variant) *core.Evaluation {
	b.Helper()
	cfg := v.Apply(core.ScaledConfig())
	out, err := core.Run(cfg, buildInput(b, name))
	if err != nil {
		b.Fatal(err)
	}
	ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if !ev.Equivalent {
		b.Fatalf("%s/%s: packed program diverged", name, v.Name())
	}
	return ev
}

// BenchmarkFigure8Coverage regenerates Figure 8's bars (package coverage
// under the four configurations) for the representative subset.
func BenchmarkFigure8Coverage(b *testing.B) {
	for _, name := range figureSubset {
		for _, v := range core.Variants() {
			v := v
			b.Run(name+"/"+v.Name(), func(b *testing.B) {
				var cov float64
				for i := 0; i < b.N; i++ {
					cov = pipelineOnce(b, name, v).Coverage
				}
				b.ReportMetric(cov*100, "coverage%")
			})
		}
	}
}

// BenchmarkTable3Expansion regenerates Table 3 (code growth, selected
// fraction, replication) under the full configuration.
func BenchmarkTable3Expansion(b *testing.B) {
	for _, name := range figureSubset {
		b.Run(name, func(b *testing.B) {
			var growth, selected, repl float64
			for i := 0; i < b.N; i++ {
				out, err := core.Run(core.ScaledConfig(), buildInput(b, name))
				if err != nil {
					b.Fatal(err)
				}
				growth = out.Pack.CodeGrowth()
				selected = out.Pack.SelectedFraction()
				repl = out.Pack.Replication()
			}
			b.ReportMetric(growth*100, "growth%")
			b.ReportMetric(selected*100, "selected%")
			b.ReportMetric(repl, "replication-x")
		})
	}
}

// BenchmarkFigure9Categories regenerates the Figure 9 branch taxonomy.
func BenchmarkFigure9Categories(b *testing.B) {
	for _, name := range figureSubset {
		b.Run(name, func(b *testing.B) {
			var cz phasedb.Categorization
			for i := 0; i < b.N; i++ {
				p := buildInput(b, name)
				img, err := p.Linearize()
				if err != nil {
					b.Fatal(err)
				}
				pa, err := core.ProfileStage(core.ScaledConfig(), img, nil)
				if err != nil {
					b.Fatal(err)
				}
				db := pa.DB()
				cz = db.Categorize()
			}
			b.ReportMetric(cz.Fraction(phasedb.MultiHigh)*100, "multihigh%")
			b.ReportMetric(cz.Fraction(phasedb.MultiSame)*100, "multisame%")
			b.ReportMetric(cz.Fraction(phasedb.UniqueBiased)*100, "uniquebiased%")
		})
	}
}

// BenchmarkFigure10Speedup regenerates Figure 10 (speedup from relayout and
// rescheduling) for the representative subset, both-features configuration
// against the no-feature one.
func BenchmarkFigure10Speedup(b *testing.B) {
	for _, name := range figureSubset {
		for _, v := range core.Variants() {
			v := v
			b.Run(name+"/"+v.Name(), func(b *testing.B) {
				var sp float64
				for i := 0; i < b.N; i++ {
					sp = pipelineOnce(b, name, v).Speedup
				}
				b.ReportMetric(sp, "speedup-x")
			})
		}
	}
}

// BenchmarkAblationBBBSize sweeps the Branch Behavior Buffer geometry: the
// smaller the table, the more hot branches are lost to contention and the
// harder region identification must work (DESIGN.md §5).
func BenchmarkAblationBBBSize(b *testing.B) {
	for _, sets := range []int{16, 64, 512} {
		b.Run(map[int]string{16: "sets16", 64: "sets64", 512: "sets512"}[sets], func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScaledConfig()
				cfg.Detector.Sets = sets
				out, err := core.Run(cfg, buildInput(b, "vpr"))
				if err != nil {
					// A BBB too small for the hot working set detects no
					// usable phases at all — coverage zero is the result,
					// not a harness failure.
					cov = 0
					continue
				}
				ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				cov = ev.Coverage
			}
			b.ReportMetric(cov*100, "coverage%")
		})
	}
}

// BenchmarkAblationGrowth sweeps MAX_BLOCKS, the heuristic growth budget
// (the paper fixes it at 1).
func BenchmarkAblationGrowth(b *testing.B) {
	for _, mb := range []int{0, 1, 4} {
		b.Run(map[int]string{0: "max0", 1: "max1", 4: "max4"}[mb], func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScaledConfig()
				cfg.Region.MaxGrowBlocks = mb
				out, err := core.Run(cfg, buildInput(b, "twolf"))
				if err != nil {
					b.Fatal(err)
				}
				ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				cov = ev.Coverage
			}
			b.ReportMetric(cov*100, "coverage%")
		})
	}
}

// BenchmarkAblationOrdering compares the paper's rank-driven package
// ordering search against first-come ordering (MaxExhaustiveOrder=0
// disables the permutation search).
func BenchmarkAblationOrdering(b *testing.B) {
	for _, exhaustive := range []bool{false, true} {
		name := "firstcome"
		if exhaustive {
			name = "ranksearch"
		}
		b.Run(name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScaledConfig()
				if !exhaustive {
					cfg.Pack.MaxExhaustiveOrder = 0
				}
				out, err := core.Run(cfg, buildInput(b, "vortex"))
				if err != nil {
					b.Fatal(err)
				}
				ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				cov = ev.Coverage
			}
			b.ReportMetric(cov*100, "coverage%")
		})
	}
}

// BenchmarkAblationSchedOnly separates the two §5.4 optimizations: layout
// only, scheduling only, and both.
func BenchmarkAblationSchedOnly(b *testing.B) {
	modes := []struct {
		name          string
		layout, sched bool
	}{
		{"neither", false, false},
		{"layout", true, false},
		{"schedule", false, true},
		{"both", true, true},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScaledConfig()
				cfg.EnableLayout = m.layout
				cfg.EnableSchedule = m.sched
				out, err := core.Run(cfg, buildInput(b, "gzip"))
				if err != nil {
					b.Fatal(err)
				}
				ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				sp = ev.Speedup
			}
			b.ReportMetric(sp, "speedup-x")
		})
	}
}

// BenchmarkSuiteJobs measures the parallel evaluation engine: the same
// representative suite subset at one worker versus the machine's full
// worker count (report.Options.Jobs = 0). On a multi-core host the j0 run
// should approach j1 divided by the core count.
func BenchmarkSuiteJobs(b *testing.B) {
	for _, jobs := range []int{1, 0} {
		name := "j1"
		if jobs == 0 {
			name = "jmax"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := report.RunSuite(report.Options{
					Machine:       cpu.DefaultConfig(),
					Core:          core.ScaledConfig(),
					Benchmarks:    figureSubset,
					ScaleOverride: 1,
					Jobs:          jobs,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHSDThroughput measures the detector model alone on a synthetic
// branch stream.
func BenchmarkHSDThroughput(b *testing.B) {
	det := hsd.New(hsd.DefaultConfig(), func(hsd.HotSpot) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Branch(int64(i%97)*4, i%3 == 0)
	}
}

// BenchmarkPipelineEndToEnd is the headline macro-bench: the entire
// pipeline including both timed runs, per representative benchmark.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for _, name := range figureSubset {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pipelineOnce(b, name, core.Variant{Inference: true, Linking: true})
			}
		})
	}
}

// BenchmarkBaselineTraces deploys the Dynamo-style trace baseline
// (internal/trace) from the same HSD profile and reports its coverage next
// to the package pipeline's — §2's scope argument, quantified.
func BenchmarkBaselineTraces(b *testing.B) {
	for _, name := range figureSubset {
		b.Run(name, func(b *testing.B) {
			var covTrace, covPack float64
			for i := 0; i < b.N; i++ {
				// Trace deployment.
				p := buildInput(b, name)
				img, err := p.Linearize()
				if err != nil {
					b.Fatal(err)
				}
				pa, err := core.ProfileStage(core.ScaledConfig(), img, nil)
				if err != nil {
					b.Fatal(err)
				}
				db := pa.DB()
				if _, err := trace.Build(trace.DefaultConfig(), p, img, db); err != nil {
					b.Fatal(err)
				}
				tracedImg, err := p.Linearize()
				if err != nil {
					b.Fatal(err)
				}
				stats, _, err := cpu.RunTimed(cpu.DefaultConfig(), tracedImg, 0)
				if err != nil {
					b.Fatal(err)
				}
				covTrace = stats.PackageCoverage()

				// Package pipeline on a fresh build.
				covPack = pipelineOnce(b, name, core.Variant{Inference: true, Linking: true}).Coverage
			}
			b.ReportMetric(covTrace*100, "trace-coverage%")
			b.ReportMetric(covPack*100, "package-coverage%")
		})
	}
}

// BenchmarkAblationLaunchStrategy compares the three §3.3.4 phase-transition
// strategies on the shared-root benchmark: no linking, static package
// links (the paper's choice), and dynamic launch-point selection (the
// alternative the paper discusses and sets aside).
func BenchmarkAblationLaunchStrategy(b *testing.B) {
	modes := []struct {
		name          string
		link, dynamic bool
	}{
		{"none", false, false},
		{"staticlinks", true, false},
		{"dynamiclaunch", false, true},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var cov, sp float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScaledConfig()
				cfg.Pack.EnableLinking = m.link
				cfg.Pack.DynamicLaunch = m.dynamic
				out, err := core.Run(cfg, buildInput(b, "m88ksim"))
				if err != nil {
					b.Fatal(err)
				}
				ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				if !ev.Equivalent {
					b.Fatal("diverged")
				}
				cov, sp = ev.Coverage, ev.Speedup
			}
			b.ReportMetric(cov*100, "coverage%")
			b.ReportMetric(sp, "speedup-x")
		})
	}
}

// BenchmarkAblationWeightSolver compares §5.4's two weight calculations:
// the damped iterative solver against the single-pass run-time
// approximation, measured by the speedup the resulting layout achieves.
func BenchmarkAblationWeightSolver(b *testing.B) {
	for _, approx := range []bool{false, true} {
		name := "iterative"
		if approx {
			name = "approx"
		}
		b.Run(name, func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				cfg := core.ScaledConfig()
				cfg.ApproxWeights = approx
				out, err := core.Run(cfg, buildInput(b, "ijpeg"))
				if err != nil {
					b.Fatal(err)
				}
				ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				if !ev.Equivalent {
					b.Fatal("diverged")
				}
				sp = ev.Speedup
			}
			b.ReportMetric(sp, "speedup-x")
		})
	}
}
