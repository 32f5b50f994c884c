// The two suite workloads. Each set-up and the measured passes run in
// child processes of the benchmark (the same binary, "child" role), so
// set-up time includes process start and peak RSS is that of the
// process doing the measured work.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

// passRecord is one RunSuite pass as a child measured it.
type passRecord struct {
	Warmup    bool    `json:"warmup"`
	Traced    bool    `json:"traced"`
	WallS     float64 `json:"wall_s"`
	Err       string  `json:"err,omitempty"`
	TablesSHA string  `json:"tables_sha"`
	Ops       int     `json:"ops"`
	Diverged  int     `json:"diverged"` // variants whose data hash differs from the original's
	// Store traffic of the pass (zero without a store).
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`
	StoreBytes  uint64 `json:"store_bytes"`
	// Per-input samples: elapsed (InputResult.Elapsed) and the time from
	// the pass's start until the input's result was delivered.
	InputElapsedMS []float64 `json:"input_elapsed_ms"`
	InputDoneMS    []float64 `json:"input_done_ms"`
	// Paper results for inference + linking.
	SpeedupGeomean float64 `json:"speedup_geomean"`
	CoverageMean   float64 `json:"coverage_mean"`
	GrowthMean     float64 `json:"growth_mean"`
	// Layers holds the per-layer values of the pass (suite fields always,
	// span and counter values only when traced).
	Layers map[string]float64 `json:"layers"`
}

// childResult is what a child prints on its standard output.
type childResult struct {
	Passes []passRecord       `json:"passes"`
	Extra  map[string]float64 `json:"extra,omitempty"` // per-layer values from replays
	// OptEquivOffS is the optimize time of an equiv-off cold pass.
	OptEquivOffS float64 `json:"opt_equiv_off_s,omitempty"`
}

// suiteOptions is the configuration every suite pass uses: the paper's
// machine and scaled pipeline configuration with Jobs = nproc.
func suiteOptions(equiv bool, store *cas.Store) report.Options {
	opts := report.Options{
		Machine: cpu.DefaultConfig(),
		Core:    core.ScaledConfig(),
		Jobs:    jobs,
		Store:   store,
	}
	opts.Core.Equiv = equiv
	return opts
}

// doneClock records, for every progress line RunSuite writes (one per
// finished input), the time since the pass started.
type doneClock struct {
	mu    sync.Mutex
	start time.Time
	ms    []float64
}

func (d *doneClock) Write(p []byte) (int, error) {
	d.mu.Lock()
	d.ms = append(d.ms, float64(time.Since(d.start).Microseconds())/1000)
	d.mu.Unlock()
	return len(p), nil
}

// runPass runs one suite pass and summarizes it.
func runPass(opts report.Options, traced bool) passRecord {
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder()
		opts.Observer = rec
	}
	clock := &doneClock{}
	opts.Progress = clock
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var storeBefore cas.Stats
	if opts.Store != nil {
		storeBefore = opts.Store.Stats()
	}
	clock.start = time.Now()
	s, err := report.RunSuite(opts)
	wall := time.Since(clock.start)
	runtime.ReadMemStats(&after)

	pr := passRecord{Traced: traced, WallS: wall.Seconds(), Layers: map[string]float64{}}
	pr.Layers["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	pr.Layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	if err != nil {
		pr.Err = err.Error()
		return pr
	}
	pr.TablesSHA = tablesSHA(s)
	pr.InputDoneMS = clock.ms
	var speedups, coverage, growth []float64
	var busy float64
	var timedInsts, sbInsts, bcHits, bcMisses, sideExits uint64
	for i := range s.Results {
		ir := &s.Results[i]
		busy += ir.Elapsed.Seconds()
		pr.InputElapsedMS = append(pr.InputElapsedMS, float64(ir.Elapsed.Microseconds())/1000)
		for _, v := range ir.Variants {
			pr.Ops++
			if !v.Equivalent {
				pr.Diverged++
			}
			timedInsts += v.TimedInsts
			sbInsts += v.SuperblockInsts
			bcHits += v.BlockCacheHits
			bcMisses += v.BlockCacheMisses
			sideExits += v.SuperblockSideExits
		}
		full := ir.Full()
		speedups = append(speedups, full.Speedup)
		coverage = append(coverage, full.Coverage*100)
		growth = append(growth, full.Growth*100)
	}
	pr.SpeedupGeomean = geomean(speedups)
	pr.CoverageMean = mean(coverage)
	pr.GrowthMean = mean(growth)
	pr.StoreHits = s.StoreProfileHits + s.StorePackageHits
	pr.StoreMisses = s.StoreProfileMisses + s.StorePackageMisses
	if opts.Store != nil {
		pr.StoreBytes = opts.Store.Stats().BytesRead - storeBefore.BytesRead
	}

	l := pr.Layers
	l["report.busy_frac"] = busy / (wall.Seconds() * float64(s.Jobs))
	l["cpu.side_exits"] = float64(sideExits)
	if timedInsts > 0 {
		l["cpu.superblock_coverage"] = float64(sbInsts) / float64(timedInsts)
	}
	if bcHits+bcMisses > 0 {
		l["cpu.blockcache_hit_rate"] = float64(bcHits) / float64(bcHits+bcMisses)
	}
	l["cas.hits"] = float64(pr.StoreHits)
	l["cas.misses"] = float64(pr.StoreMisses)
	l["cas.bytes"] = float64(pr.StoreBytes)
	if rec != nil {
		for k, v := range traceLayers(rec.Export()) {
			l[k] = v
		}
	}
	return pr
}

// tablesSHA fingerprints the pass's paper tables and figures.
func tablesSHA(s *report.Suite) string {
	h := sha256.New()
	for _, t := range []string{s.Table1(), s.Figure8(), s.Table3(), s.Figure9(), s.Figure10()} {
		h.Write([]byte(t))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceLayers reads per-layer values out of a traced pass: stage span
// time (summed over jobs, so busy seconds, not wall time) and the stage
// counters the pipeline already emits.
func traceLayers(t *obs.Trace) map[string]float64 {
	span := make(map[string]float64)
	for _, st := range t.SpanTotals() {
		span[st.Name] = st.Total.Seconds()
	}
	c := t.Metrics.Counters
	regions := 0
	for _, e := range t.Events {
		if e.Kind == obs.RegionGrown.String() {
			regions++
		}
	}
	l := map[string]float64{
		"profile.s":          span[obs.StageProfile],
		"profile.detections": float64(c["profile.detections"]),
		"profile.phases":     float64(c["profile.phases"]),
		"region.s":           span[obs.StageFilter] + span[obs.StageRegion],
		"region.regions":     float64(regions),
		"pack.s":             span[obs.StagePackage] + span[obs.StageLink],
		"pack.packages":      float64(c["pack.packages"]),
		"pack.links":         float64(c["pack.links"]),
		"opt.s":              span[obs.StageOptimize],
		"cpu.evaluate_s":     span[obs.StageEvaluate],
		"equiv.paths_proved": float64(c[obs.EquivPathsProvedCounter]),
		"equiv.paths_fuzzed": float64(c[obs.EquivPathsFuzzedCounter]),
	}
	if insts := c["profile.insts"]; insts > 0 {
		l["profile.ns_per_inst"] = span[obs.StageProfile] * 1e9 / float64(insts)
	}
	return l
}

// childMain is the child role: "ref" runs one cold pass (the suite-cold
// set-up), "fill" one proving pass into a fresh store (the suite-warm
// set-up), "measure" passes until the measured time is used up.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	mode := fs.String("mode", "", "ref, fill or measure")
	warm := fs.Bool("warm", false, "measure warm passes against -store")
	storeDir := fs.String("store", "", "artifact store directory")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Bool("trace", false, "trace passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := childRun(*mode, *warm, *storeDir, *seconds, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func childRun(mode string, warm bool, storeDir string, seconds float64, traced bool) (*childResult, error) {
	var store *cas.Store
	if storeDir != "" {
		var err error
		if store, err = cas.Open(storeDir); err != nil {
			return nil, err
		}
		defer store.Close()
	}
	res := &childResult{Extra: map[string]float64{}}
	switch mode {
	case "ref":
		res.Passes = append(res.Passes, runPass(suiteOptions(false, nil), traced))
	case "fill":
		res.Passes = append(res.Passes, runPass(suiteOptions(true, store), traced))
	case "measure":
		opts := suiteOptions(warm, store)
		// One warm-up pass lets the heap grow and caches fill; it is
		// checked but not measured.
		wu := runPass(opts, false)
		wu.Warmup = true
		res.Passes = append(res.Passes, wu)
		start := time.Now()
		for i := 0; i < minRuns || time.Since(start).Seconds() < seconds; i++ {
			// Every pass starts from a collected heap, so no pass pays
			// for garbage an earlier one left.
			runtime.GC()
			// A traced run alternates untraced and traced passes, so the
			// two wall times compare under the same conditions.
			res.Passes = append(res.Passes, runPass(opts, traced && i%2 == 1))
		}
		if traced {
			if err := replayLayers(res.Extra, store); err != nil {
				return nil, err
			}
			if warm {
				// The equiv-off cold pass that, against the set-up's
				// proving pass, splits equiv time out of optimize time.
				off := runPass(suiteOptions(false, nil), true)
				res.OptEquivOffS = off.Layers["opt.s"]
			}
		}
	default:
		return nil, fmt.Errorf("unknown child mode %q", mode)
	}
	return res, nil
}

// replayLayers times, call by call, work a pass does inside RunSuite by
// making the same public calls: the timed engine's throughput on each
// original input at one job (the suite's own evaluate spans overlap on
// the shared CPUs), image hashing, and with a store the warm pass's raw
// store reads, artifact decodes and re-materialization of stored
// package sets. It also summarizes the stored equivalence certificates.
func replayLayers(extra map[string]float64, store *cas.Store) error {
	var insts uint64
	var timed float64
	for _, b := range workload.Ordered() {
		for _, in := range b.Inputs {
			img, err := b.Build(in).Linearize()
			if err != nil {
				return err
			}
			t := time.Now()
			core.ImageHash(img)
			extra["core.image_hash_s"] += time.Since(t).Seconds()
			t = time.Now()
			st, _, err := cpu.RunTimedCached(cpu.DefaultConfig(), img, 0, cpu.NewBlockCache(img))
			if err != nil {
				return err
			}
			timed += time.Since(t).Seconds()
			insts += st.Insts
		}
	}
	extra["cpu.timed_minsts_per_s"] = float64(insts) / timed / 1e6
	if store == nil {
		return nil
	}
	var certs, proved int
	for _, e := range store.List() {
		t := time.Now()
		data, err := store.Get(e.Kind, e.Key)
		extra["cas.get_s"] += time.Since(t).Seconds()
		if err != nil {
			return fmt.Errorf("replay get %s: %w", e.Kind, err)
		}
		t = time.Now()
		switch e.Kind {
		case cas.KindProfile:
			_, err = core.DecodeProfileArtifact(bytes.NewReader(data))
			extra["core.decode_s"] += time.Since(t).Seconds()
		case cas.KindRegion:
			_, err = core.DecodeRegionArtifact(bytes.NewReader(data))
			extra["core.decode_s"] += time.Since(t).Seconds()
		case cas.KindPackageSet:
			var set *core.PackageSet
			set, err = core.DecodePackageSet(bytes.NewReader(data))
			extra["core.decode_s"] += time.Since(t).Seconds()
			if err != nil {
				break
			}
			for _, c := range set.Equiv {
				certs++
				if c.Equivalent && !c.BudgetExceeded {
					proved++
				}
				extra["equiv.paths_proved"] += float64(c.PathsProved)
				extra["equiv.paths_fuzzed"] += float64(c.PathsFuzzed)
			}
			t = time.Now()
			p, merr := set.Materialize()
			if merr != nil {
				return merr
			}
			img, merr := p.Linearize()
			if merr != nil {
				return merr
			}
			extra["core.materialize_s"] += time.Since(t).Seconds()
			t = time.Now()
			core.ImageHash(img)
			extra["core.image_hash_s"] += time.Since(t).Seconds()
		}
		if err != nil {
			return fmt.Errorf("replay decode %s: %w", e.Kind, err)
		}
	}
	if certs > 0 {
		extra["equiv.proved_frac"] = float64(proved) / float64(certs)
	}
	return nil
}

// childOutcome is one finished child process.
type childOutcome struct {
	res   *childResult
	wall  time.Duration
	rssMB float64
}

// spawnChild runs the benchmark binary in its child role and decodes its
// result; it waits for the process to end.
func spawnChild(args ...string) (*childOutcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"child"}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err = cmd.Run()
	oc := &childOutcome{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			oc.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	oc.res = &childResult{}
	if err := json.Unmarshal(out.Bytes(), oc.res); err != nil {
		return nil, fmt.Errorf("child %v: decode result: %w", args, err)
	}
	return oc, nil
}

// runSuiteWorkload runs suite-cold or suite-warm: three set-ups, then
// the measured passes, then the output checks.
func runSuiteWorkload(r *run) error {
	warm := r.workload == "suite-warm"
	traceArg := fmt.Sprintf("-trace=%v", r.trace)

	// Set-up. suite-cold: a cold reference pass whose tables every
	// measured pass must reproduce. suite-warm: the cold, proving pass
	// that fills a fresh store.
	var setupS []float64
	var refSHA, storeDir string
	var fills []*childOutcome
	for i := 0; i < setups; i++ {
		var oc *childOutcome
		var err error
		if warm {
			storeDir = r.workPath(fmt.Sprintf("store-%d", i))
			oc, err = spawnChild("-mode", "fill", "-store", storeDir, traceArg)
			if i > 0 {
				os.RemoveAll(r.workPath(fmt.Sprintf("store-%d", i-1)))
			}
			fills = append(fills, oc)
		} else {
			oc, err = spawnChild("-mode", "ref", traceArg)
		}
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, oc.wall.Seconds())
		p := oc.res.Passes[0]
		r.attempted += int64(p.Ops)
		r.checkPass("setup", i, p)
		if i == 0 {
			refSHA = p.TablesSHA
		}
		r.check("setup.tables_repeat", p.TablesSHA == refSHA, "set-up %d tables %.12s, first %.12s", i, p.TablesSHA, refSHA)
	}
	r.e2e["setup_s"] = median(setupS)

	args := []string{"-mode", "measure", fmt.Sprintf("-seconds=%g", r.seconds), traceArg}
	if warm {
		args = append(args, "-warm", "-store", storeDir)
	}
	oc, err := spawnChild(args...)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	r.e2e["peak_rss_mb"] = oc.rssMB

	var walls, tracedWalls, elapsed, done []float64
	layerSamples := make(map[string][]float64)
	runtimeSamples := make(map[string][]float64) // untraced passes only
	for i, p := range oc.res.Passes {
		r.attempted += int64(p.Ops)
		r.checkPass("pass", i, p)
		r.check("tables_match_cold", p.TablesSHA == refSHA,
			"pass %d tables %.12s, cold reference %.12s", i, p.TablesSHA, refSHA)
		if warm {
			r.check("warm_store_misses", p.StoreMisses == 0 && p.StoreHits > 0,
				"pass %d: %d store misses, %d hits", i, p.StoreMisses, p.StoreHits)
		}
		if p.Warmup {
			continue
		}
		if p.Traced {
			tracedWalls = append(tracedWalls, p.WallS)
			for k, v := range p.Layers {
				layerSamples[k] = append(layerSamples[k], v)
			}
			continue
		}
		walls = append(walls, p.WallS)
		elapsed = append(elapsed, p.InputElapsedMS...)
		done = append(done, p.InputDoneMS...)
		for _, k := range []string{"go.alloc_mb", "go.gc_cycles"} {
			runtimeSamples[k] = append(runtimeSamples[k], p.Layers[k])
		}
	}
	// Every pass reproduces the same tables (checked above), so any pass
	// gives the paper results.
	last := oc.res.Passes[len(oc.res.Passes)-1]
	r.e2e["suite_s"] = median(walls)
	r.e2e["speedup_geomean"] = last.SpeedupGeomean
	r.e2e["coverage_mean"] = last.CoverageMean
	r.e2e["code_growth_mean"] = last.GrowthMean
	r.latencies("ingest", elapsed, "per-input elapsed")
	r.latencies("publish", done, "pass start to input result")
	r.note("suite passes: %d untraced, %d traced; suite_s samples %v", len(walls), len(tracedWalls), walls)

	if r.trace {
		for k, v := range layerSamples {
			r.layers[k] = median(v)
		}
		// Allocation and GC figures come from the untraced passes, so
		// the recorder's own allocations do not count.
		for k, v := range runtimeSamples {
			r.layers[k] = median(v)
		}
		for k, v := range oc.res.Extra {
			r.layers[k] = v
		}
		if len(tracedWalls) > 0 && len(walls) > 0 {
			r.layers["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
			r.note("tracing overhead: traced suite_s %.4f s vs untraced %.4f s", median(tracedWalls), median(walls))
		}
		if warm {
			// Equiv runs only in the set-up's proving pass: its optimize
			// time minus an equiv-off cold pass's optimize time.
			var on []float64
			for _, f := range fills {
				on = append(on, f.res.Passes[0].Layers["opt.s"])
			}
			r.layers["equiv.s"] = max(0, median(on)-oc.res.OptEquivOffS)
		}
	}
	return nil
}

// checkPass applies the per-pass checks: the pass ran, and every
// (input, variant) packed run's data hash equals the original's.
func (r *run) checkPass(what string, i int, p passRecord) {
	if p.Err != "" {
		r.check(what+".ran", false, "%s %d: %s", what, i, p.Err)
		return
	}
	r.check(what+".data_hash", p.Diverged == 0, "%s %d: %d of %d variants diverged", what, i, p.Diverged, p.Ops)
	if p.Diverged > 1 {
		// Each diverged variant is a failed operation; the check
		// counted the first.
		r.failed += int64(p.Diverged) - 1
	}
}

// latencies reports the median and tail-percentile of samples as
// <name>_p50_ms and <name>_p99_ms, noting which percentile the tail is.
func (r *run) latencies(name string, samples []float64, what string) {
	pct, tail := tailPercentile(samples)
	r.set(name+"_p50_ms", median(samples))
	r.set(name+"_p99_ms", tail)
	r.note("%s (%s): n=%d p25=%.3f p50=%.3f p75=%.3f ms, tail reported at p%g = %.3f ms",
		name, what, len(samples), percentile(samples, 250), median(samples), percentile(samples, 750), pct, tail)
}
