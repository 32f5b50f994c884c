// Command vpbench regenerates the paper's evaluation tables and figures
// over the synthetic benchmark suite.
//
// Usage:
//
//	vpbench                 # everything (Tables 1-3, Figures 8-10)
//	vpbench -table 3        # one table
//	vpbench -figure 8       # one figure
//	vpbench -bench perl     # restrict the suite
//	vpbench -scale 1        # force a smaller iteration scale
//	vpbench -j 4            # run 4 inputs concurrently (default GOMAXPROCS)
//	vpbench -reps 3         # run the suite 3 times, report the best rep
//	vpbench -blockcache off # legacy instruction-at-a-time timed simulation
//	vpbench -superblock off # tier-0 only: block cache without trace chaining
//	vpbench -benchjson f    # write machine-readable timing JSON to f
//	vpbench -cpuprofile f   # write a pprof CPU profile of the run to f
//	vpbench -metrics        # per-stage wall-time, counter and histogram tables
//	vpbench -trace f        # write the suite's JSON span/event trace to f
//	vpbench -serve :9090    # expose /metrics, /trace, /healthz, /readyz,
//	                        # /debug/pprof while the suite runs
//	vpbench -log json       # structured progress records (text|json|off)
//	vpbench -verify         # static verifier gates every stage (exit 3 on violation)
//	vpbench -verifyoverhead # extra verify-on run, overhead recorded in -benchjson
//	vpbench -equiv          # prove every optimized package equivalent (exit 4 on refutation)
//	vpbench -equivoverhead  # extra equiv-on run, overhead recorded in -benchjson;
//	                        # with -store -storecompare also measures the warm
//	                        # (store-served proofs) steady-state overhead
//	vpbench -store DIR      # suite profiles/packages served from + written to DIR
//	vpbench -store DIR -storecompare  # storeless main suite, then cold+warm
//	                        # store-backed runs recorded in -benchjson
//	vpbench -daemon URL     # load generator: stream hot-spot profiles to vpackd
//	                        # (-streams, -records size the load; see loadgen.go)
//	vpbench -daemon URL -phaseshift  # then shift the phase and assert the
//	                        # daemon's drift score rises (-driftwindow sizes
//	                        # the shifted burst; match the daemon's flag)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// benchJSON is the machine-readable trajectory record -benchjson emits so
// successive PRs can track suite wall time and simulation throughput (the
// BENCH_*.json files at the repo root).
type benchJSON struct {
	Schema         string  `json:"schema"`
	Timestamp      string  `json:"timestamp"`
	GoVersion      string  `json:"go_version"`
	NumCPU         int     `json:"num_cpu"`
	Jobs           int     `json:"jobs"`
	Scale          int64   `json:"scale"`
	WallSeconds    float64 `json:"wall_seconds"`
	TotalInsts     uint64  `json:"total_insts"`
	InstsPerSecond float64 `json:"insts_per_second"`

	// Reps is the -reps best-of count; WallSeconds is the best rep.
	Reps int `json:"reps,omitempty"`
	// VerifyWallSeconds is the wall time of the extra verify-on suite run
	// -verifyoverhead performs; VerifyOverheadFraction relates it to the
	// main run (0.03 = 3% slower with the static verifier gating every
	// stage). The fraction floors at 0 — the verifier cannot speed the
	// suite up, so a negative sample is scheduler noise — and is a
	// pointer so a measured zero still appears in the JSON.
	VerifyWallSeconds      float64  `json:"verify_wall_seconds,omitempty"`
	VerifyOverheadFraction *float64 `json:"verify_overhead_fraction,omitempty"`
	// EquivWallSeconds/EquivOverheadFraction mirror the verify pair for
	// -equivoverhead: an extra suite run with translation validation
	// proving every optimized package from scratch, timed against the
	// main run. This is the cold cost of full symbolic proving.
	EquivWallSeconds      float64  `json:"equiv_wall_seconds,omitempty"`
	EquivOverheadFraction *float64 `json:"equiv_overhead_fraction,omitempty"`
	// EquivWarmWallSeconds/EquivWarmOverheadFraction record the
	// steady-state cost (with -equivoverhead -store -storecompare):
	// certificates are part of the package-set artifact and keyed by the
	// config hash, so a warm store-backed run serves every proved package
	// from disk and re-proves nothing. The fraction compares the warm
	// equiv-on run against the warm equiv-off run — the regime a
	// continuously-operating pipeline (vpackd) actually pays for, and the
	// number the <5% budget in scripts/bench.sh gates on.
	EquivWarmWallSeconds      float64  `json:"equiv_warm_wall_seconds,omitempty"`
	EquivWarmOverheadFraction *float64 `json:"equiv_warm_overhead_fraction,omitempty"`
	// StoreColdWallSeconds/StoreWarmWallSeconds are -storecompare's
	// measurement: one suite run against a fresh artifact store (cold,
	// every profile and package computed and written through) and one
	// against the store it left behind (warm, every stage served from
	// disk). Store carries the warm run's hit/miss tally and footprint.
	StoreColdWallSeconds float64     `json:"store_cold_wall_seconds,omitempty"`
	StoreWarmWallSeconds float64     `json:"store_warm_wall_seconds,omitempty"`
	Store                *benchStore `json:"store,omitempty"`
	// BlockCacheHitRate aggregates the timed runs' basic-block cache
	// traffic across all variants (absent when -blockcache=off).
	BlockCacheHitRate float64 `json:"blockcache_hit_rate,omitempty"`
	// SuperblockCoverage is the fraction of timed-run instructions retired
	// inside tier-1 superblock traces; SuperblockPromoted/Demoted/SideExits
	// aggregate the tier's promotion churn (absent when -superblock=off).
	SuperblockCoverage  float64 `json:"superblock_coverage,omitempty"`
	SuperblockPromoted  uint64  `json:"superblock_promoted,omitempty"`
	SuperblockDemoted   uint64  `json:"superblock_demoted,omitempty"`
	SuperblockSideExits uint64  `json:"superblock_side_exits,omitempty"`

	Inputs []benchInput `json:"inputs"`
}

type benchInput struct {
	Bench   string  `json:"bench"`
	Input   string  `json:"input"`
	Insts   uint64  `json:"insts"`
	Seconds float64 `json:"seconds"`
}

// benchStore is the artifact-store block of a -benchjson record: the
// suite's hit/miss tally by artifact class and the store's footprint
// after the run.
type benchStore struct {
	ProfileHits   uint64 `json:"profile_hits"`
	ProfileMisses uint64 `json:"profile_misses"`
	PackageHits   uint64 `json:"package_hits"`
	PackageMisses uint64 `json:"package_misses"`
	Bytes         int64  `json:"bytes"`
	Segments      int    `json:"segments"`
}

// storeBlock lowers a suite's store tally to the JSON block, nil when
// the suite ran storeless.
func storeBlock(s *report.Suite) *benchStore {
	if s.StoreProfileHits+s.StoreProfileMisses+s.StorePackageHits+s.StorePackageMisses == 0 && s.StoreBytes == 0 {
		return nil
	}
	return &benchStore{
		ProfileHits:   s.StoreProfileHits,
		ProfileMisses: s.StoreProfileMisses,
		PackageHits:   s.StorePackageHits,
		PackageMisses: s.StorePackageMisses,
		Bytes:         s.StoreBytes,
		Segments:      s.StoreSegments,
	}
}

func main() {
	var (
		table      = flag.Int("table", 0, "print only Table N (1, 2 or 3)")
		figure     = flag.Int("figure", 0, "print only Figure N (8, 9 or 10)")
		benches    = flag.String("bench", "", "comma-separated benchmark subset")
		scale      = flag.Int64("scale", 0, "override every input's iteration scale")
		jobs       = flag.Int("j", 0, "concurrent benchmark inputs (0 = GOMAXPROCS, 1 = sequential)")
		reps       = flag.Int("reps", 1, "run the suite N times and report the best (fastest) rep")
		machine    = cliflags.MachineFlags(flag.CommandLine)
		logf       = cliflags.LogFlags(flag.CommandLine, "suppress progress records (same as -log off)")
		serve      = flag.String("serve", "", "serve /metrics, /trace, /healthz, /readyz and /debug/pprof on `addr` during the run")
		benchjson  = flag.String("benchjson", "", "write machine-readable suite timing JSON to `file`")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to `file`")
		metrics    = flag.Bool("metrics", false, "print per-stage wall-time, counter, gauge and histogram tables after the suite")
		tracePath  = flag.String("trace", "", "write the suite's JSON span/event/metric trace to `file`")
		verifyOn   = cliflags.VerifyFlag(flag.CommandLine)
		verifyOH   = flag.Bool("verifyoverhead", false, "additionally run the suite once with -verify on and record the overhead in -benchjson")
		equivOn    = cliflags.EquivFlag(flag.CommandLine)
		equivOH    = flag.Bool("equivoverhead", false, "additionally run the suite once with -equiv on and record the overhead in -benchjson")
		daemonURL  = flag.String("daemon", "", "load-generator mode: stream hot-spot profiles to a running vpackd at `url` instead of running the suite")
		streams    = flag.Int("streams", 8, "concurrent profile streams in -daemon mode")
		records    = flag.Int("records", 100, "total hot-spot records to stream in -daemon mode")
		phaseShift = flag.Bool("phaseshift", false, "in -daemon mode, follow the stream with a synthesized phase shift and assert the daemon's drift score rises")
		driftf     = cliflags.DriftFlags(flag.CommandLine)
		storeDir   = cliflags.StoreFlag(flag.CommandLine)
		storeComp  = flag.Bool("storecompare", false, "with -store: keep the main suite storeless, then run one cold and one warm store-backed suite and record both wall times in -benchjson")
	)
	flag.Parse()

	if *storeComp && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "vpbench: -storecompare requires -store")
		os.Exit(2)
	}

	if *daemonURL != "" {
		os.Exit(runLoadgen(*daemonURL, *streams, *records, *benches, logf.Mode(), *phaseShift, driftf.Config()))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *table == 2 {
		fmt.Print(report.Table2(cpu.DefaultConfig()))
		return
	}

	opts := report.Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		ScaleOverride: *scale,
		Jobs:          *jobs,
	}
	opts.Core.Verify = *verifyOn
	opts.Core.Equiv = *equivOn
	if err := machine.Apply(&opts.Machine); err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(2)
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	var rec *obs.Recorder
	if *metrics || *tracePath != "" || *serve != "" {
		rec = obs.NewRecorder()
		opts.Observer = rec
	}

	logger, err := telemetry.NewLogger(logf.Mode(), os.Stderr, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(2)
	}
	opts.Logger = logger

	// The main suite uses the store directly when -store is given alone;
	// -storecompare keeps it storeless so the trajectory numbers stay
	// comparable across PRs and measures cold/warm separately below.
	if *storeDir != "" && !*storeComp {
		s, err := cas.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench:", err)
			os.Exit(1)
		}
		defer s.Close()
		opts.Store = s
	}

	if *serve != "" {
		srv := telemetry.NewServer(rec)
		// Store series are always present (zero without a -store), so
		// dashboards never see gaps.
		srv.AlwaysCounters(obs.StoreCounters()...)
		srv.AlwaysCounters(obs.EquivCounters()...)
		srv.AlwaysGauges(obs.StoreGauges()...)
		addr, err := srv.Listen(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: serve:", err)
			os.Exit(1)
		}
		defer srv.Close()
		srv.SetReady(true)
		logger.Info("telemetry serving", "addr", addr)
	}

	// Best-of-N reps: each rep runs the full suite; tables, metrics,
	// traces and -benchjson all come from the fastest rep. The telemetry
	// server streams one live run, so -serve pins reps to 1.
	nreps := *reps
	if nreps < 1 {
		nreps = 1
	}
	if *serve != "" && nreps > 1 {
		logger.Warn("-serve streams a single live run; forcing -reps 1")
		nreps = 1
	}
	var suite *report.Suite
	for r := 1; r <= nreps; r++ {
		runOpts := opts
		runRec := rec
		if r > 1 && rec != nil {
			// Later reps record into fresh recorders so the reported
			// metrics describe exactly one suite run, not an accumulation.
			runRec = obs.NewRecorder()
			runOpts.Observer = runRec
		}
		s, err := report.RunSuite(runOpts)
		if err != nil {
			if runRec != nil && *tracePath != "" {
				if werr := writeTrace(*tracePath, runRec); werr != nil {
					fmt.Fprintln(os.Stderr, "vpbench: trace:", werr)
				}
			}
			if errors.Is(err, core.ErrNoPhases) || errors.Is(err, core.ErrNoPackages) {
				fmt.Fprintln(os.Stderr, "vpbench: hint: some inputs were too short for the detector; raise -scale")
			}
			fmt.Fprintln(os.Stderr, "vpbench:", err)
			if errors.Is(err, core.ErrVerifyFailed) {
				os.Exit(3)
			}
			if errors.Is(err, core.ErrNotEquivalent) {
				os.Exit(4)
			}
			os.Exit(1)
		}
		if nreps > 1 {
			logger.Info("rep complete", "rep", r, "of", nreps, "wall", s.Elapsed)
		}
		if suite == nil || s.Elapsed < suite.Elapsed {
			suite = s
			rec = runRec
		}
	}
	if rec != nil && *tracePath != "" {
		if werr := writeTrace(*tracePath, rec); werr != nil {
			fmt.Fprintln(os.Stderr, "vpbench: trace:", werr)
		}
	}

	// Verifier overhead measurement: extra suite runs with every stage
	// gate on, timed against the main run. Best-of-nreps on both sides, so
	// the recorded fraction compares like with like instead of one noisy
	// run against the best baseline. Tables and traces still come from the
	// main run.
	verifyWall := 0.0
	if *verifyOH {
		vOpts := opts
		vOpts.Core.Verify = true
		vOpts.Observer = nil
		for r := 1; r <= nreps; r++ {
			vSuite, err := report.RunSuite(vOpts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vpbench: verify-on run:", err)
				if errors.Is(err, core.ErrVerifyFailed) {
					os.Exit(3)
				}
				os.Exit(1)
			}
			if verifyWall == 0 || vSuite.Elapsed.Seconds() < verifyWall {
				verifyWall = vSuite.Elapsed.Seconds()
			}
		}
		logger.Info("verify-on suite complete", "wall", verifyWall,
			"overhead", fmt.Sprintf("%+.2f%%", 100*(verifyWall/suite.Elapsed.Seconds()-1)))
	}

	// Translation-validation overhead: same protocol as -verifyoverhead —
	// extra suite runs with every package proved, best-of-nreps on both
	// sides. A refutation here is a miscompile and fails the measurement.
	equivWall := 0.0
	if *equivOH {
		eOpts := opts
		eOpts.Core.Equiv = true
		eOpts.Observer = nil
		for r := 1; r <= nreps; r++ {
			eSuite, err := report.RunSuite(eOpts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vpbench: equiv-on run:", err)
				if errors.Is(err, core.ErrNotEquivalent) {
					os.Exit(4)
				}
				os.Exit(1)
			}
			if equivWall == 0 || eSuite.Elapsed.Seconds() < equivWall {
				equivWall = eSuite.Elapsed.Seconds()
			}
		}
		logger.Info("equiv-on suite complete", "wall", equivWall,
			"overhead", fmt.Sprintf("%+.2f%%", 100*(equivWall/suite.Elapsed.Seconds()-1)))
	}

	// Cold/warm store measurement: one suite run populating the store
	// from scratch, then one rerun against it. The warm run must serve
	// every profile and package from disk — a nonzero miss count means
	// the key scheme broke, which is worth failing loudly here rather
	// than silently recording a meaningless "warm" number.
	var storeCold, storeWarm float64
	storeStats := storeBlock(suite)
	if *storeComp {
		cold, err := storeSuiteRun(opts, *storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: store cold run:", err)
			os.Exit(1)
		}
		warm, err := storeSuiteRun(opts, *storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: store warm run:", err)
			os.Exit(1)
		}
		if warm.StoreProfileMisses+warm.StorePackageMisses > 0 {
			fmt.Fprintf(os.Stderr, "vpbench: warm store run missed (%d profile, %d package) — store keys are broken\n",
				warm.StoreProfileMisses, warm.StorePackageMisses)
			os.Exit(1)
		}
		storeCold = cold.Elapsed.Seconds()
		storeWarm = warm.Elapsed.Seconds()
		storeStats = storeBlock(warm)
		logger.Info("store compare", "cold", cold.Elapsed, "warm", warm.Elapsed,
			"profile_hits", warm.StoreProfileHits, "package_hits", warm.StorePackageHits)
	}

	// Steady-state translation-validation overhead: the certificates ride
	// the package-set artifact, keyed by the config hash, so once a store
	// holds the proved packages a rerun serves them from disk without
	// re-proving. The warm equiv-on run is compared against the warm
	// equiv-off run from -storecompare above; a package miss here means
	// the key scheme broke and the "warm" number would be meaningless.
	equivWarmWall := 0.0
	if *equivOH && *storeComp {
		eOpts := opts
		eOpts.Core.Equiv = true
		if _, err := storeSuiteRun(eOpts, *storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: equiv store cold run:", err)
			if errors.Is(err, core.ErrNotEquivalent) {
				os.Exit(4)
			}
			os.Exit(1)
		}
		for r := 1; r <= nreps; r++ {
			wSuite, err := storeSuiteRun(eOpts, *storeDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vpbench: equiv store warm run:", err)
				if errors.Is(err, core.ErrNotEquivalent) {
					os.Exit(4)
				}
				os.Exit(1)
			}
			if wSuite.StoreProfileMisses+wSuite.StorePackageMisses > 0 {
				fmt.Fprintf(os.Stderr, "vpbench: warm equiv run missed (%d profile, %d package) — store keys are broken\n",
					wSuite.StoreProfileMisses, wSuite.StorePackageMisses)
				os.Exit(1)
			}
			if equivWarmWall == 0 || wSuite.Elapsed.Seconds() < equivWarmWall {
				equivWarmWall = wSuite.Elapsed.Seconds()
			}
		}
		if storeWarm > 0 {
			logger.Info("equiv warm suite complete", "wall", equivWarmWall,
				"overhead", fmt.Sprintf("%+.2f%%", 100*(equivWarmWall/storeWarm-1)))
		}
	}

	if *benchjson != "" {
		if err := writeBenchJSON(*benchjson, suite, *scale, nreps, verifyWall, equivWall, equivWarmWall, storeCold, storeWarm, storeStats); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench:", err)
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: memprofile:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *metrics {
		printMetrics(rec.Export())
		if *table == 0 && *figure == 0 {
			return
		}
	}

	switch {
	case *table == 1:
		fmt.Print(suite.Table1())
	case *table == 3:
		fmt.Print(suite.Table3())
	case *figure == 8:
		fmt.Print(suite.Figure8())
	case *figure == 9:
		fmt.Print(suite.Figure9())
	case *figure == 10:
		fmt.Print(suite.Figure10())
	case *table != 0 || *figure != 0:
		fmt.Fprintln(os.Stderr, "vpbench: unknown table/figure")
		os.Exit(2)
	default:
		fmt.Println(suite.Table1())
		fmt.Println(report.Table2(cpu.DefaultConfig()))
		fmt.Println(suite.Figure8())
		fmt.Println(suite.Table3())
		fmt.Println(suite.Figure9())
		fmt.Println(suite.Figure10())
	}
}

// storeSuiteRun runs one observerless suite against the store in dir,
// opening and closing the store around the run so the next call starts
// from the manifest on disk — a genuine warm restart, not a shared
// in-memory handle.
func storeSuiteRun(opts report.Options, dir string) (*report.Suite, error) {
	s, err := cas.Open(dir)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	runOpts := opts
	runOpts.Observer = nil
	runOpts.Store = s
	return report.RunSuite(runOpts)
}

// writeTrace dumps the recorder's trace as indented JSON.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.Export().WriteJSON(f)
}

// printMetrics renders the per-stage wall-time table (canonical stages
// first, other spans after) and the counter/gauge tables.
func printMetrics(t *obs.Trace) {
	totals := t.SpanTotals()
	byName := make(map[string]obs.SpanTotal, len(totals))
	for _, st := range totals {
		byName[st.Name] = st
	}
	fmt.Println("stage                        spans      total wall")
	seen := make(map[string]bool)
	for _, name := range obs.Stages() {
		if st, ok := byName[name]; ok {
			fmt.Printf("%-26s %6d  %14v\n", st.Name, st.Count, st.Total.Round(time.Microsecond))
			seen[name] = true
		}
	}
	other := 0
	var otherTotal time.Duration
	for _, st := range totals {
		if !seen[st.Name] {
			other += st.Count
			otherTotal += st.Total
		}
	}
	if other > 0 {
		fmt.Printf("%-26s %6d  %14v\n", "(input/variant spans)", other, otherTotal.Round(time.Microsecond))
	}

	if len(t.Metrics.Counters) > 0 {
		fmt.Println("\ncounter                                 value")
		names := make([]string, 0, len(t.Metrics.Counters))
		for name := range t.Metrics.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-34s %10d\n", name, t.Metrics.Counters[name])
		}
	}
	if len(t.Metrics.Gauges) > 0 {
		fmt.Println("\ngauge                                   value")
		names := make([]string, 0, len(t.Metrics.Gauges))
		for name := range t.Metrics.Gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-34s %10.3f\n", name, t.Metrics.Gauges[name])
		}
	}
	if len(t.Metrics.Histograms) > 0 {
		fmt.Println("\nhistogram                               count         mean       ~p50       ~p99")
		names := make([]string, 0, len(t.Metrics.Histograms))
		for name := range t.Metrics.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := t.Metrics.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Printf("%-34s %10d %12.1f %10v %10v\n", name, h.Count,
				h.Sum/float64(h.Count), histQuantile(h, 0.50), histQuantile(h, 0.99))
		}
	}
}

// histQuantile returns the upper bound of the bucket holding the q-th
// observation — an order-of-magnitude quantile, which is all the
// power-of-two layout resolves.
func histQuantile(h obs.HistogramRecord, q float64) string {
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	bounds := obs.HistogramBounds()
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			if i < len(bounds) {
				return strconv.FormatFloat(bounds[i], 'g', -1, 64)
			}
			break
		}
	}
	return ">" + strconv.FormatFloat(bounds[len(bounds)-1], 'g', -1, 64)
}

// trajectory is the on-disk shape of the BENCH_*.json files: a curated
// history of past measurements (kept verbatim across refreshes) plus the
// latest run. Refreshing via -benchjson never discards history entries.
type trajectory struct {
	Schema  string            `json:"schema"`
	History []json.RawMessage `json:"history,omitempty"`
	Latest  benchJSON         `json:"latest"`
}

func writeBenchJSON(path string, suite *report.Suite, scale int64, reps int, verifyWall, equivWall, equivWarmWall, storeCold, storeWarm float64, storeStats *benchStore) error {
	wall := suite.Elapsed.Seconds()
	rec := benchJSON{
		Schema:      "vpbench-suite/v1",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Jobs:        suite.Jobs,
		Scale:       scale,
		WallSeconds: wall,
		TotalInsts:  suite.TotalInsts(),
	}
	if reps > 1 {
		rec.Reps = reps
	}
	if verifyWall > 0 {
		rec.VerifyWallSeconds = verifyWall
		if wall > 0 {
			f := max(verifyWall/wall-1, 0)
			rec.VerifyOverheadFraction = &f
		}
	}
	if equivWall > 0 {
		rec.EquivWallSeconds = equivWall
		if wall > 0 {
			f := max(equivWall/wall-1, 0)
			rec.EquivOverheadFraction = &f
		}
	}
	if equivWarmWall > 0 {
		rec.EquivWarmWallSeconds = equivWarmWall
		if storeWarm > 0 {
			f := max(equivWarmWall/storeWarm-1, 0)
			rec.EquivWarmOverheadFraction = &f
		}
	}
	rec.StoreColdWallSeconds = storeCold
	rec.StoreWarmWallSeconds = storeWarm
	rec.Store = storeStats
	if wall > 0 {
		rec.InstsPerSecond = float64(rec.TotalInsts) / wall
	}
	var bcHits, bcMisses, sbInsts, timedInsts uint64
	for i := range suite.Results {
		r := &suite.Results[i]
		rec.Inputs = append(rec.Inputs, benchInput{
			Bench:   r.Bench,
			Input:   r.Input,
			Insts:   r.DynInsts,
			Seconds: r.Elapsed.Seconds(),
		})
		for j := range r.Variants {
			v := &r.Variants[j]
			bcHits += v.BlockCacheHits
			bcMisses += v.BlockCacheMisses
			sbInsts += v.SuperblockInsts
			timedInsts += v.TimedInsts
			rec.SuperblockPromoted += v.SuperblocksPromoted
			rec.SuperblockDemoted += v.SuperblocksDemoted
			rec.SuperblockSideExits += v.SuperblockSideExits
		}
	}
	if bcHits+bcMisses > 0 {
		rec.BlockCacheHitRate = float64(bcHits) / float64(bcHits+bcMisses)
	}
	if timedInsts > 0 {
		rec.SuperblockCoverage = float64(sbInsts) / float64(timedInsts)
	}
	traj := trajectory{Schema: "bench-trajectory/v1", Latest: rec}
	if old, err := os.ReadFile(path); err == nil {
		var prev trajectory
		if json.Unmarshal(old, &prev) == nil && prev.Schema == traj.Schema {
			traj.History = prev.History
		}
	}
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
