// Package core orchestrates the full Vacuum Packing pipeline: it profiles a
// program under the Hot Spot Detector, filters detections into unique
// phases, identifies a hot region per phase, extracts and links packages,
// optimizes them (layout + rescheduling), and hands back both the pristine
// original and the packed program for evaluation.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pack"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/verify"
)

// Sentinel pipeline failures. They are always wrapped with detail via %w,
// so match them with errors.Is rather than string comparison.
var (
	// ErrNoPhases reports that region identification left no usable
	// phase: either the profile detected none, or every detected phase
	// was skipped.
	ErrNoPhases = errors.New("no usable phases detected")
	// ErrNoPackages reports that package construction failed for every
	// identified region.
	ErrNoPackages = errors.New("no packages constructed")
	// ErrVerifyFailed reports that the static verifier (Config.Verify)
	// rejected a pipeline stage's output. The wrapped chain contains a
	// *verify.Error with the structured diagnostics.
	ErrVerifyFailed = verify.ErrFailed
	// ErrNotEquivalent reports that translation validation (Config.Equiv)
	// refuted a package: the optimized code is not observationally
	// equivalent to the region code it replaced. The wrapped chain
	// contains an *equiv.Error with the structured counterexample.
	ErrNotEquivalent = equiv.ErrNotEquivalent
)

// Config gathers every pipeline knob. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Detector hsd.Config
	Filter   phasedb.Config
	Region   region.Config
	Pack     pack.Config
	Sched    opt.Resources

	// EnableLayout and EnableSchedule control the §5.4 optimization passes
	// applied to package code. EnableSink additionally applies the
	// redundancy-elimination pass §5.4 describes as future work: cold
	// results move off the hot path into side exit blocks. ApproxWeights
	// swaps the damped iterative weight solver for the single-pass
	// approximation §5.4 suggests for run-time systems.
	// EnableMerge fuses single-entry fallthrough chains inside packages
	// before the other passes, realizing §5.4's increased block scope from
	// cold-path elimination.
	EnableLayout   bool
	EnableSchedule bool
	EnableMerge    bool
	EnableSink     bool
	ApproxWeights  bool

	// HistoryDepth, when positive, interposes the §3.1 hardware history
	// filter (hot-spot signatures) between the detector and the software
	// filter, suppressing re-detections of the last HistoryDepth hot
	// spots at HistorySimilarity Jaccard similarity. The paper's default
	// pushes all filtering to software (depth 0).
	HistoryDepth      int
	HistorySimilarity float64

	// MaxPhases caps how many detected phases are packaged (most heavily
	// detected first); 0 means all.
	MaxPhases int
	// ProfileLimit bounds the profiling run's instruction count
	// (0 = unlimited).
	ProfileLimit uint64
	// EntrySeedWeight seeds weight propagation at package entries.
	EntrySeedWeight float64

	// Verify gates every pipeline stage on the static verifier
	// (internal/verify): regions are checked against their phase records,
	// installation against the package invariants, and each optimization
	// pass against CFG well-formedness, with transformation certificates
	// re-checked after the last pass. Off by default; a violation fails
	// the pipeline with an ErrVerifyFailed-matchable error. Enabled runs
	// bump the verify.checked / verify.violations counters.
	Verify bool

	// Equiv gates every optimized package on translation validation
	// (internal/equiv): the package function is snapshotted after
	// installation and linking, and after the optimization passes each
	// acyclic path must produce identical observable effects — live-out
	// register terms, memory write chains, side-exit targets — or the
	// pipeline fails with an ErrNotEquivalent-matchable error carrying a
	// structured counterexample. Certificates land on the Outcome and the
	// PackageSet artifact. Off by default. EquivMaxPaths bounds symbolic
	// path enumeration per package (0 = the equiv package default); past
	// it the proof degrades to bounded differential execution.
	Equiv         bool
	EquivMaxPaths int
}

// DefaultConfig returns the paper's configuration: Table 2 detector,
// §3.1 filter thresholds, §3.2 region parameters, linking on, layout and
// rescheduling on.
func DefaultConfig() Config {
	return Config{
		Detector:        hsd.DefaultConfig(),
		Filter:          phasedb.DefaultConfig(),
		Region:          region.DefaultConfig(),
		Pack:            pack.DefaultConfig(),
		Sched:           opt.DefaultResources(),
		EnableLayout:    true,
		EnableSchedule:  true,
		EnableMerge:     true,
		EntrySeedWeight: 1000,
	}
}

// ProfileKey returns a canonical hash of the profiling-relevant
// sub-configuration: the Hot Spot Detector, the software filter, the
// hardware history filter and the profiling instruction limit. Two
// configs with equal keys produce identical profiling runs (phase
// database, profile stats, baseline timing) on the same image, so the
// result can be shared read-only across them — the paper's four
// evaluation variants only differ in Region/Pack knobs and therefore all
// map to one key. Packaging, optimization and evaluation knobs
// deliberately do not participate.
func (cfg Config) ProfileKey() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", struct {
		Detector          hsd.Config
		Filter            phasedb.Config
		HistoryDepth      int
		HistorySimilarity float64
		ProfileLimit      uint64
	}{cfg.Detector, cfg.Filter, cfg.HistoryDepth, cfg.HistorySimilarity, cfg.ProfileLimit})
	return h.Sum64()
}

// Hash returns a canonical hash of the complete configuration — every
// knob that can change any pipeline artifact. It extends ProfileKey with
// the region, packaging, optimization and phase-cap knobs, so it is the
// second half of the store's package-set key: two configs with equal
// Hash produce byte-identical RegionArtifacts and PackageSets on the
// same image. The Verify gate and the Pack.Verify hook deliberately do
// not participate: verification rejects bad outputs but never changes
// good ones, and func identities are not configuration. The Equiv knobs
// DO participate — equiv runs embed certificates in the PackageSet, so a
// warm store hit from a non-equiv run must miss when -equiv turns on.
func (cfg Config) Hash() uint64 {
	h := fnv.New64a()
	pk := cfg.Pack
	pk.Verify = nil
	fmt.Fprintf(h, "%+v", struct {
		Detector          hsd.Config
		Filter            phasedb.Config
		Region            region.Config
		Pack              pack.Config
		Sched             opt.Resources
		EnableLayout      bool
		EnableSchedule    bool
		EnableMerge       bool
		EnableSink        bool
		ApproxWeights     bool
		HistoryDepth      int
		HistorySimilarity float64
		MaxPhases         int
		ProfileLimit      uint64
		EntrySeedWeight   float64
		Equiv             bool
		EquivMaxPaths     int
	}{
		cfg.Detector, cfg.Filter, cfg.Region, pk, cfg.Sched,
		cfg.EnableLayout, cfg.EnableSchedule, cfg.EnableMerge,
		cfg.EnableSink, cfg.ApproxWeights,
		cfg.HistoryDepth, cfg.HistorySimilarity,
		cfg.MaxPhases, cfg.ProfileLimit, cfg.EntrySeedWeight,
		cfg.Equiv, cfg.EquivMaxPaths,
	})
	return h.Sum64()
}

// ScaledConfig returns DefaultConfig with the workload-scaled Hot Spot
// Detector (hsd.ScaledConfig). The evaluation suite uses this
// configuration; see DESIGN.md for the scaling substitution rationale.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Detector = hsd.ScaledConfig()
	return cfg
}

// Variant names one of the paper's four evaluation configurations
// (Figures 8 and 10): {inference off/on} × {linking off/on}.
type Variant struct {
	Inference bool
	Linking   bool
}

// Variants lists the four bars of Figures 8 and 10 in paper order.
func Variants() []Variant {
	return []Variant{
		{Inference: false, Linking: false},
		{Inference: false, Linking: true},
		{Inference: true, Linking: false},
		{Inference: true, Linking: true},
	}
}

// Name renders a variant like the paper's legend.
func (v Variant) Name() string {
	s := "no inference"
	if v.Inference {
		s = "inference"
	}
	if v.Linking {
		return s + " + linking"
	}
	return s + ", no linking"
}

// Apply returns cfg specialized to the variant.
func (v Variant) Apply(cfg Config) Config {
	cfg.Region.EnableInference = v.Inference
	cfg.Pack.EnableLinking = v.Linking
	return cfg
}

// Outcome is the result of running the pipeline on one program.
type Outcome struct {
	// Original is a pristine clone of the input program; Packed is the
	// input program with packages installed.
	Original *prog.Program
	Packed   *prog.Program

	DB      *phasedb.DB
	Regions []*region.Region
	Pack    *pack.Result

	// ProfileStats summarizes the profiling run.
	ProfileInsts    uint64
	ProfileBranches uint64
	Detections      uint64
	// SkippedPhases counts phases whose region identification failed
	// (e.g. all hot-spot PCs were unmappable).
	SkippedPhases int

	// Equiv holds the per-package translation-validation certificates when
	// Config.Equiv is on, in package order.
	Equiv []*equiv.Certificate
}

// ProfileStats summarizes one profiling run. The JSON tags are the
// ProfileArtifact codec's: counters that can exceed 2^53 travel as
// strings so the round trip is exact.
type ProfileStats struct {
	Insts      uint64 `json:"insts,string"`
	Branches   uint64 `json:"branches,string"`
	Detections uint64 `json:"detections,string"`
	// DataHash/DataStores fingerprint the run's data-segment effects for
	// functional-equivalence checks against packed runs.
	DataHash   uint64 `json:"data_hash,string"`
	DataStores uint64 `json:"data_stores,string"`
}

// DetectHotSpots runs img to completion on the timed engine mc selects,
// with cfg.Detector watching every retired conditional branch (§3.1), and
// calls emit for each raw hot spot in detection order. The single pass
// yields both the profile statistics and the run's TimingStats — the
// unpacked program's baseline timing. cfg.ProfileLimit, when set, bounds
// the run.
func DetectHotSpots(cfg Config, mc cpu.Config, img *prog.Image, emit func(hsd.HotSpot)) (ProfileStats, cpu.TimingStats, error) {
	det := hsd.New(cfg.Detector, emit)
	base, m, err := cpu.RunTimedSink(mc, img, cfg.ProfileLimit, nil, func(pc int64, taken bool, insts uint64) {
		det.SetInstCount(insts)
		det.Branch(pc, taken)
	})
	st := ProfileStats{
		Insts:      m.InstCount,
		Branches:   det.Stats.BranchesSeen,
		Detections: det.Stats.Detections,
	}
	st.DataHash, st.DataStores = m.DataHash()
	if err != nil {
		return st, base, fmt.Errorf("core: profiling run: %w", err)
	}
	return st, base, nil
}

// Run executes the full pipeline on p. p is mutated into the packed
// program; the returned Outcome carries a pristine clone for baselines.
// It is a thin no-op-observer wrapper around RunObserved.
func Run(cfg Config, p *prog.Program) (*Outcome, error) {
	return RunObserved(cfg, p, obs.Nop{})
}

// RunObserved is Run reporting spans, events and metrics for every stage
// to an observer. Pass obs.Nop{} (or call Run) when observability is off;
// the disabled path adds no allocations.
//
// It is a thin composition over the staged pipeline API: ProfileStage →
// RegionStage → PackageStage, with the intermediate artifacts folded into
// the Outcome. The observer stream is byte-identical to the pre-staged
// monolithic flow.
func RunObserved(cfg Config, p *prog.Program, o obs.Observer) (*Outcome, error) {
	sp := o.StartSpan(obs.StagePipeline)
	defer sp.End()
	out := &Outcome{Original: p.Clone(), Packed: p}

	img, err := p.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize: %w", err)
	}
	pa, err := ProfileStageObserved(cfg, cpu.DefaultConfig(), img, nil, o)
	if err != nil {
		return nil, err
	}
	out.DB = pa.DB()
	out.ProfileInsts = pa.Stats.Insts
	out.ProfileBranches = pa.Stats.Branches
	out.Detections = pa.Stats.Detections
	if err := packageStaged(cfg, out, p, img, pa, o); err != nil {
		return out, err
	}
	return out, nil
}

// Package applies region identification, package construction and
// optimization to p (mutating it) from an existing phase database. The
// database's PCs must have been gathered on an image that linearizes
// identically to p — a Clone of the profiled program qualifies.
func Package(cfg Config, out *Outcome, p *prog.Program, img *prog.Image, db *phasedb.DB) error {
	return PackageObserved(cfg, out, p, img, db, obs.Nop{})
}

// passes translates the configuration's optimization knobs into the opt
// package's pass selection.
func (cfg Config) passes() opt.Passes {
	return opt.Passes{
		Merge:           cfg.EnableMerge,
		Sink:            cfg.EnableSink,
		Layout:          cfg.EnableLayout,
		Schedule:        cfg.EnableSchedule,
		Approx:          cfg.ApproxWeights,
		Sched:           cfg.Sched,
		EntrySeedWeight: cfg.EntrySeedWeight,
	}
}

// PackageObserved is Package reporting to an observer: the filter, region,
// package, link and optimize stages each run inside their span, and
// skipped phases emit PhaseSkipped events carrying the reason.
//
// It composes RegionStageObserved and PackageStageObserved over a
// profile artifact wrapped around db, stamped with img's hash so the
// stages' staleness checks pass by construction.
func PackageObserved(cfg Config, out *Outcome, p *prog.Program, img *prog.Image, db *phasedb.DB, o obs.Observer) error {
	pa := &ProfileArtifact{
		Schema:      ProfileArtifactSchema,
		ProgramHash: ImageHash(img),
		ProfileKey:  cfg.ProfileKey(),
		db:          db,
	}
	return packageStaged(cfg, out, p, img, pa, o)
}

// verifyCheck accounts one verifier invocation on the observer and passes
// its error through: verify.checked counts invocations, verify.violations
// counts individual diagnostics.
func verifyCheck(o obs.Observer, err error) error {
	o.Count("verify.checked", 1)
	if err == nil {
		return nil
	}
	o.Count("verify.violations", int64(len(verify.Diagnostics(err))))
	return err
}

// Evaluation is a timed comparison of the original and packed programs.
type Evaluation struct {
	Base   cpu.TimingStats
	Packed cpu.TimingStats
	// Coverage is the fraction of the packed run's dynamic instructions
	// retired from package code (Figure 8's metric).
	Coverage float64
	// Speedup is base cycles / packed cycles (Figure 10's metric).
	Speedup float64
	// Equivalent reports whether both runs produced identical
	// data-segment effects (cpu.Machine.SameEffects): the same stores in
	// the same order, or the same number of stores leaving the same final
	// data segment.
	Equivalent bool
}

// Evaluate times both programs to completion under the machine model and
// checks functional equivalence. limit bounds each run (0 = unlimited).
func (o *Outcome) Evaluate(mc cpu.Config, limit uint64) (*Evaluation, error) {
	return o.EvaluateObserved(mc, limit, obs.Nop{})
}

// EvaluateObserved is Evaluate inside an "evaluate" span, recording the
// eval.* counters and the eval.speedup / eval.coverage gauges.
func (o *Outcome) EvaluateObserved(mc cpu.Config, limit uint64, ob obs.Observer) (*Evaluation, error) {
	sp := ob.StartSpan(obs.StageEvaluate)
	defer sp.End()
	baseImg, err := o.Original.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize original: %w", err)
	}
	packedImg, err := o.Packed.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize packed: %w", err)
	}
	baseStats, baseM, err := cpu.RunTimed(mc, baseImg, limit)
	if err != nil {
		return nil, fmt.Errorf("core: base run: %w", err)
	}
	var bc *cpu.BlockCache
	if !mc.DisableBlockCache && limit == 0 {
		bc = cpu.NewBlockCache(packedImg)
	}
	packedStats, packedM, err := cpu.RunTimedCached(mc, packedImg, limit, bc)
	if err != nil {
		return nil, fmt.Errorf("core: packed run: %w", err)
	}
	ev := &Evaluation{
		Base:       baseStats,
		Packed:     packedStats,
		Coverage:   packedStats.PackageCoverage(),
		Equivalent: baseM.SameEffects(packedM),
	}
	if packedStats.Cycles > 0 {
		ev.Speedup = float64(baseStats.Cycles) / float64(packedStats.Cycles)
	}
	ob.Count("eval.base_cycles", int64(baseStats.Cycles))
	ob.Count("eval.packed_cycles", int64(packedStats.Cycles))
	if bc != nil {
		ob.Count(obs.BlockCacheHitsCounter, int64(bc.Stats.Hits+bc.Stats.Chained))
		ob.Count(obs.BlockCacheMissesCounter, int64(bc.Stats.Misses))
		ob.Count(obs.BlockCacheEvictionsCounter, int64(bc.Stats.Evicted))
		ob.Count(obs.SuperblockPromotedCounter, int64(bc.SB.Promoted))
		ob.Count(obs.SuperblockDemotedCounter, int64(bc.SB.Demoted))
		ob.Count(obs.SuperblockSideExitsCounter, int64(bc.SB.SideExits))
		ob.Count(obs.SuperblockChainedCounter, int64(bc.SB.ChainedInsts))
	}
	ob.Gauge("eval.speedup", ev.Speedup)
	ob.Gauge("eval.coverage", ev.Coverage)
	ob.Observe("eval.cycles", float64(packedStats.Cycles))
	return ev, nil
}
