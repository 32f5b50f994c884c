// Staged pipeline API: the monolithic Run flow decomposed into first-class,
// independently invokable stages exchanging typed, serializable artifacts.
//
//	ProfileStage  (program image)            -> *ProfileArtifact
//	RegionStage   (image, ProfileArtifact)   -> *RegionArtifact
//	PackageStage  (program, RegionArtifact)  -> *PackageSet
//	Outcome.Evaluate                         -> *Evaluation
//
// Each stage can resume from an artifact decoded out of JSON — the basis
// of the vpackd continuous-optimization daemon, which accumulates
// streamed profiles, re-runs RegionStage+PackageStage in the background
// and serves the resulting PackageSets back out. Run/RunObserved and
// Package/PackageObserved are thin compositions over these stages; their
// observer streams are byte-identical to the pre-staged monolith
// (TestTraceGoldenSchema locks this).
package core

import (
	"fmt"
	"sort"

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

// ProfileStage runs stage 1 on the paper's Table 2 machine
// (cpu.DefaultConfig): the program executes to completion under the Hot
// Spot Detector and the filtered phase database is wrapped into a
// ProfileArtifact stamped with the image hash and profile key. base, when
// non-nil, receives the baseline timing of the same pass.
func ProfileStage(cfg Config, img *prog.Image, base *cpu.TimingStats) (*ProfileArtifact, error) {
	return ProfileStageObserved(cfg, cpu.DefaultConfig(), img, base, obs.Nop{})
}

// ProfileStageObserved is ProfileStage on the timed engine mc selects,
// reporting to an observer: the run executes inside a "profile" span,
// every unique phase emits a PhaseDetected event and every
// software-filtered (redundant) detection a PhaseFiltered event, and the
// profile.* counters summarize the run. It is DetectHotSpots feeding the
// software filter (behind the §3.1 history filter when
// cfg.HistoryDepth > 0). o must be non-nil; pass obs.Nop{} to observe
// nothing.
func ProfileStageObserved(cfg Config, mc cpu.Config, img *prog.Image, base *cpu.TimingStats, o obs.Observer) (*ProfileArtifact, error) {
	sp := o.StartSpan(obs.StageProfile)
	db := phasedb.New(cfg.Filter)
	record := func(h hsd.HotSpot) { db.Record(h) }
	if o.Enabled() {
		record = func(h hsd.HotSpot) {
			before := len(db.Phases)
			ph := db.Record(h)
			kind := obs.PhaseDetected
			if len(db.Phases) == before {
				kind = obs.PhaseFiltered
			}
			o.Emit(obs.Event{Kind: kind, Phase: ph.ID, N: 1})
		}
	}
	if cfg.HistoryDepth > 0 {
		sim := cfg.HistorySimilarity
		if sim == 0 {
			sim = 0.8
		}
		record = hsd.NewHistoryFilter(cfg.HistoryDepth, sim).WrapDetector(record)
	}
	st, ts, err := DetectHotSpots(cfg, mc, img, record)
	o.Count("profile.insts", int64(st.Insts))
	o.Count("profile.branches", int64(st.Branches))
	o.Count("profile.detections", int64(st.Detections))
	o.Count("profile.phases", int64(len(db.Phases)))
	o.Count("profile.redundant", int64(db.Redundant))
	sp.End()
	if err != nil {
		return nil, err
	}
	if base != nil {
		*base = ts
	}
	return newProfileArtifact(cfg, img, db, st), nil
}

// RegionStage runs stage 2: phase selection (detection-weight order, the
// MaxPhases cap) followed by per-phase region identification (§3.2)
// against img, which must hash to the artifact's origin image —
// otherwise the stage fails with an ErrStaleArtifact-wrapped error.
//
// On success the artifact carries one region per usable phase in
// selection order. When every phase is skipped the artifact (with its
// skip count) is returned alongside an ErrNoPhases-wrapped error.
func RegionStage(cfg Config, img *prog.Image, pa *ProfileArtifact) (*RegionArtifact, error) {
	return RegionStageObserved(cfg, img, pa, obs.Nop{})
}

// RegionStageObserved is RegionStage reporting to an observer: the filter
// and region stage spans, PhaseSkipped events and the filter.*/region.*
// counters. o must be non-nil; pass obs.Nop{} to observe nothing.
func RegionStageObserved(cfg Config, img *prog.Image, pa *ProfileArtifact, o obs.Observer) (*RegionArtifact, error) {
	if h := ImageHash(img); h != pa.ProgramHash {
		return nil, fmt.Errorf("core: region stage: profile of image %016x applied to image %016x: %w",
			pa.ProgramHash, h, ErrStaleArtifact)
	}
	db := pa.DB()

	// Phase selection: order by detection weight and apply the MaxPhases
	// cap. The software filter proper runs inline during profiling; this
	// is its post-pass over the accumulated database.
	fsp := o.StartSpan(obs.StageFilter)
	phases := append([]*phasedb.Phase(nil), db.Phases...)
	sort.SliceStable(phases, func(i, j int) bool {
		return phases[i].Detections > phases[j].Detections
	})
	if cfg.MaxPhases > 0 && len(phases) > cfg.MaxPhases {
		o.Count("filter.capped_phases", int64(len(phases)-cfg.MaxPhases))
		phases = phases[:cfg.MaxPhases]
	}
	o.Count("filter.selected_phases", int64(len(phases)))
	fsp.End()

	ra := &RegionArtifact{
		Schema:      RegionArtifactSchema,
		ProgramHash: pa.ProgramHash,
		TotalPhases: len(db.Phases),
		boundTo:     img.Prog,
	}
	if h, err := pa.Hash(); err == nil {
		ra.ProfileHash = h
	}

	// Region identification per selected phase (§3.2).
	rsp := o.StartSpan(obs.StageRegion)
	for _, ph := range phases {
		r, err := region.IdentifyObserved(cfg.Region, img, ph, o)
		if err != nil {
			ra.SkippedPhases++
			o.Emit(obs.Event{Kind: obs.PhaseSkipped, Phase: ph.ID, Name: err.Error()})
			o.Count("region.skipped_phases", 1)
			continue
		}
		if cfg.Verify {
			if err := verifyCheck(o, verify.Region("region", cfg.Region, img, ph, r)); err != nil {
				rsp.End()
				return ra, fmt.Errorf("core: region verification (phase %d): %w", ph.ID, err)
			}
		}
		ra.regions = append(ra.regions, r)
	}
	rsp.End()
	if len(ra.regions) == 0 {
		return ra, fmt.Errorf("core: %w (%d phases, %d skipped)", ErrNoPhases, len(db.Phases), ra.SkippedPhases)
	}
	return ra, nil
}

// PackageStage runs stage 3 on p, mutating it: package construction
// (§3.3), installation and linking, and the §5.4 optimization passes. p's
// image must hash to the region artifact's origin (ErrStaleArtifact
// otherwise) — a Clone of the profiled program qualifies, since cloning
// preserves block IDs and layout.
func PackageStage(cfg Config, p *prog.Program, img *prog.Image, ra *RegionArtifact) (*PackageSet, error) {
	return PackageStageObserved(cfg, p, img, ra, obs.Nop{})
}

// PackageStageObserved is PackageStage reporting to an observer: the
// package and optimize stage spans, per-package events from construction
// and linking, and PhaseSkipped events for regions that built no package.
// o must be non-nil; pass obs.Nop{} to observe nothing.
func PackageStageObserved(cfg Config, p *prog.Program, img *prog.Image, ra *RegionArtifact, o obs.Observer) (*PackageSet, error) {
	return packageStage(cfg, p, img, ra, o, nil)
}

// PackageStageReusing is PackageStageObserved proving through memo (with
// Config.Equiv on): a package whose proof problem the memo already holds
// reuses that certificate instead of being proved again, and counts
// obs.EquivReusedCounter. The result is identical to PackageStageObserved's,
// byte for byte; PackageSet.Reused reports how many proofs were reused.
// One memo serves one program's successive repacks, which must not
// overlap. o must be non-nil; pass obs.Nop{} to observe nothing.
func PackageStageReusing(cfg Config, p *prog.Program, img *prog.Image, ra *RegionArtifact, o obs.Observer, memo *equiv.Memo) (*PackageSet, error) {
	return packageStage(cfg, p, img, ra, o, memo)
}

func packageStage(cfg Config, p *prog.Program, img *prog.Image, ra *RegionArtifact, o obs.Observer, memo *equiv.Memo) (*PackageSet, error) {
	if h := ImageHash(img); h != ra.ProgramHash {
		return nil, fmt.Errorf("core: package stage: regions of image %016x applied to image %016x: %w",
			ra.ProgramHash, h, ErrStaleArtifact)
	}
	regions, err := ra.bind(p)
	if err != nil {
		return nil, err
	}

	// Step 3: package construction (§3.3).
	skipped := 0
	psp := o.StartSpan(obs.StagePackage)
	var pkgs []*pack.Package
	for _, r := range regions {
		ps, err := pack.BuildPhaseObserved(cfg.Pack, p, r, o)
		if err != nil {
			skipped++
			o.Emit(obs.Event{Kind: obs.PhaseSkipped, Phase: r.PhaseID, Name: err.Error()})
			o.Count("pack.skipped_phases", 1)
			continue
		}
		pkgs = append(pkgs, ps...)
	}
	psp.End()
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoPackages)
	}
	pcfg := cfg.Pack
	if cfg.Verify {
		// Sandwich hook: InstallObserved runs this after its built-in
		// structural check, before the result escapes.
		pcfg.Verify = func(p *prog.Program, res *pack.Result) error {
			if err := verifyCheck(o, verify.Program("link", p)); err != nil {
				return err
			}
			return verifyCheck(o, verify.Packages("link", p, res))
		}
	}
	res, err := pack.InstallObserved(pcfg, p, pkgs, o)
	if err != nil {
		return nil, err
	}
	// The blocks entered from outside their own function, computed once
	// for the whole stage: Capture and the merge pass read it instead of
	// rescanning the program per package. It stays exact while packages
	// are optimized because the passes mutate only pk.Fn and never fuse an
	// entered block.
	entered := p.EnteredBlocks()
	// Past installation the program carries the packages, so failures
	// below still surface the live result: the partial set mirrors the
	// monolith's Outcome.Pack being set before optimization could fail.
	var certs []*equiv.Certificate
	reused := 0
	partial := func(err error) (*PackageSet, error) {
		set := &PackageSet{Schema: PackageSetSchema, ProgramHash: ra.ProgramHash, res: res, packed: p}
		set.SkippedPhases = skipped
		set.Equiv = certs
		return set, err
	}

	// Translation validation (Config.Equiv) snapshots every package
	// function now — after installation and linking, before the passes
	// mutate them — so each optimized package can be proved against the
	// region code it replaced.
	var snaps map[*pack.Package]*equiv.Snapshot
	if cfg.Equiv {
		snaps = make(map[*pack.Package]*equiv.Snapshot, len(res.Packages))
		for _, pk := range res.Packages {
			entries := make([]*prog.Block, 0, len(pk.Entries))
			for _, c := range pk.Entries {
				entries = append(entries, c)
			}
			snaps[pk] = equiv.Capture(pk.Fn, entries, entered)
		}
	}

	// Optimization (§5.4): weight calculation, relayout, rescheduling.
	regByPhase := make(map[int]*region.Region, len(regions))
	for _, r := range regions {
		regByPhase[r.PhaseID] = r
	}
	osp := o.StartSpan(obs.StageOptimize)
	ps := cfg.passes()
	var rec *opt.PassRecord
	if cfg.Verify || cfg.Equiv {
		rec = &opt.PassRecord{}
		ps.Record = rec
	}
	for _, pk := range res.Packages {
		r := regByPhase[pk.PhaseID]
		if r == nil {
			continue
		}
		if cfg.Verify {
			// Passes mutate only pk.Fn, so the per-pass sandwich checks
			// just that function; the stage-boundary checks below re-prove
			// the whole program.
			fn := pk.Fn
			ps.Check = func(pass string) error {
				return verifyCheck(o, verify.Func("optimize/"+pass, p, fn))
			}
		}
		entries := make([]*prog.Block, 0, len(pk.Entries))
		for _, c := range pk.Entries {
			entries = append(entries, c)
		}
		if err := opt.ApplyPasses(ps, entered, pk.Fn, entries, r, o); err != nil {
			osp.End()
			return partial(fmt.Errorf("core: pass verification (%s): %w", pk.Fn.Name, err))
		}
		if cfg.Equiv {
			cert, hit, eerr := memo.Prove(snaps[pk], equiv.Config{MaxPaths: cfg.EquivMaxPaths})
			if cert != nil {
				certs = append(certs, cert)
				rec.Equiv = certs
				o.Count(obs.EquivPackagesCounter, 1)
				o.Count(obs.EquivPathsProvedCounter, int64(cert.PathsProved))
				o.Count(obs.EquivPathsFuzzedCounter, int64(cert.PathsFuzzed))
			}
			if hit {
				reused++
				o.Count(obs.EquivReusedCounter, 1)
			}
			if eerr != nil {
				n := len(equiv.Counterexamples(eerr))
				if n == 0 {
					n = 1
				}
				o.Count(obs.EquivViolationsCounter, int64(n))
				osp.End()
				return partial(fmt.Errorf("core: translation validation (%s): %w", pk.Fn.Name, eerr))
			}
		}
	}
	osp.End()

	if err := p.Verify(); err != nil {
		return partial(fmt.Errorf("core: packed program invalid: %w", err))
	}
	if cfg.Verify {
		checks := []error{
			verifyCheck(o, verify.Program("optimize", p)),
			verifyCheck(o, verify.Packages("optimize", p, res)),
			verifyCheck(o, verify.Passes("optimize", p, rec)),
			verifyCheck(o, verify.Schedule("optimize", rec)),
		}
		for _, err := range checks {
			if err != nil {
				return partial(fmt.Errorf("core: post-optimization verification: %w", err))
			}
		}
	}
	set := newPackageSet(p, res, ra.hash(), ra.ProgramHash)
	set.SkippedPhases = skipped
	set.Equiv = certs
	set.reused = reused
	return set, nil
}

// packageStaged composes RegionStage and PackageStage over an existing
// profile artifact, accumulating results into out. It preserves the
// pre-staged monolith's behavior exactly: partial regions survive into
// out on a region-stage failure, and skip counts from both stages sum
// into out.SkippedPhases.
func packageStaged(cfg Config, out *Outcome, p *prog.Program, img *prog.Image, pa *ProfileArtifact, o obs.Observer) error {
	ra, err := RegionStageObserved(cfg, img, pa, o)
	if ra != nil {
		out.SkippedPhases += ra.SkippedPhases
		if regions, berr := ra.bind(p); berr == nil && len(regions) > 0 {
			out.Regions = regions
		}
	}
	if err != nil {
		return err
	}
	set, err := PackageStageObserved(cfg, p, img, ra, o)
	if set != nil {
		out.SkippedPhases += set.SkippedPhases
		out.Pack = set.Result()
		out.Equiv = set.Equiv
	}
	return err
}
