package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/workload"
)

// daemonShiftedRecords is how many phase-shifted records follow the
// captured run in a daemon-shaped profile.
const daemonShiftedRecords = 200

// buildDaemonProfile builds the profile a long-running vpackd repacks from:
// bench's whole captured run at its first input (ScaledConfig detector),
// followed by daemonShiftedRecords records cycled from a phase-shifted
// copy of that run (fixed seed) — in each shifted record a seeded 40% of
// the branches drop out and the survivors' taken counts flip. It fills
// f's served program, its image, both record streams and the artifact,
// stamped as the daemon stamps one.
func buildDaemonProfile(tb testing.TB, bench string, f *daemonFixture) {
	tb.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	p := b.Build(b.Inputs[0])
	img, err := p.Clone().Linearize()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := ScaledConfig()
	var spots []hsd.HotSpot
	if _, _, err := DetectHotSpots(cfg, cpu.DefaultConfig(), img, func(h hsd.HotSpot) {
		h.Branches = append([]hsd.BranchRecord(nil), h.Branches...)
		spots = append(spots, h)
	}); err != nil {
		tb.Fatal(err)
	}
	if len(spots) == 0 {
		tb.Fatalf("%s: no hot spots detected", bench)
	}
	rng := rand.New(rand.NewSource(1))
	shifted := make([]hsd.HotSpot, len(spots))
	for i, h := range spots {
		shifted[i] = shiftHotSpot(rng, h)
	}
	f.p, f.img, f.spots, f.shifted = p, img, spots, shifted
	f.pa = f.profile(bench, daemonShiftedRecords)
}

// profile returns the artifact of f's captured run followed by n records
// cycled from its shifted copy.
func (f *daemonFixture) profile(bench string, n int) *ProfileArtifact {
	cfg := ScaledConfig()
	db := phasedb.New(cfg.Filter)
	for _, h := range f.spots {
		db.Record(h)
	}
	for i := 0; i < n; i++ {
		db.Record(f.shifted[i%len(f.shifted)])
	}
	return &ProfileArtifact{
		Schema:      ProfileArtifactSchema,
		Program:     bench,
		ProgramHash: ImageHash(f.img),
		ProfileKey:  cfg.ProfileKey(),
		Phases:      db.Snapshot(),
	}
}

// shiftHotSpot drops a seeded 40% of h's branches and flips the
// survivors' taken counts. PCs stay real, so the record still maps onto
// the program; only its phase shape changes.
func shiftHotSpot(rng *rand.Rand, h hsd.HotSpot) hsd.HotSpot {
	drop := make(map[int]bool)
	for _, j := range rng.Perm(len(h.Branches))[:len(h.Branches)*2/5] {
		drop[j] = true
	}
	out := h
	out.Branches = nil
	for j, br := range h.Branches {
		if drop[j] {
			continue
		}
		br.Taken = br.Exec - br.Taken
		out.Branches = append(out.Branches, br)
	}
	return out
}

// daemonFixture is one program's daemon-shaped profile and the package
// set a repack builds from it. Each is made at most once per test binary
// and shared; callers must not mutate them.
type daemonFixture struct {
	p   *prog.Program
	img *prog.Image
	pa  *ProfileArtifact
	set *PackageSet
	// spots is the captured run; shifted its phase-shifted copy.
	spots, shifted []hsd.HotSpot
}

var (
	daemonMu       sync.Mutex
	daemonFixtures = make(map[string]*daemonFixture)
)

// fixture returns bench's entry, building its profile on first use. The
// caller holds daemonMu.
func fixture(tb testing.TB, bench string) *daemonFixture {
	f, ok := daemonFixtures[bench]
	if !ok {
		f = &daemonFixture{}
		buildDaemonProfile(tb, bench, f)
		daemonFixtures[bench] = f
	}
	return f
}

// daemonProfile returns bench's shared daemon-shaped profile
// (buildDaemonProfile).
func daemonProfile(tb testing.TB, bench string) (*prog.Program, *prog.Image, *ProfileArtifact) {
	tb.Helper()
	daemonMu.Lock()
	defer daemonMu.Unlock()
	f := fixture(tb, bench)
	return f.p, f.img, f.pa
}

// daemonPackageStage returns the shared result of the daemon's repack on
// bench's daemon-shaped profile: RegionStage and PackageStage, Equiv on,
// against a fresh clone.
func daemonPackageStage(tb testing.TB, bench string) *PackageSet {
	tb.Helper()
	daemonMu.Lock()
	defer daemonMu.Unlock()
	f := fixture(tb, bench)
	if f.set == nil {
		f.set = repackDaemonProfile(tb, f.p, f.pa)
	}
	return f.set
}

// daemonProfileExtended returns bench's daemon-shaped profile with extra
// more shifted records: the profile the daemon's next repack sees.
func daemonProfileExtended(tb testing.TB, bench string, extra int) *ProfileArtifact {
	tb.Helper()
	daemonMu.Lock()
	defer daemonMu.Unlock()
	return fixture(tb, bench).profile(bench, daemonShiftedRecords+extra)
}

// repackDaemonProfile is one repack of pa against a fresh clone of p.
func repackDaemonProfile(tb testing.TB, p *prog.Program, pa *ProfileArtifact) *PackageSet {
	tb.Helper()
	return repackReusing(tb, p, pa, nil)
}

// repackReusing is one repack of pa against a fresh clone of p, proving
// through memo (nil: no reuse).
func repackReusing(tb testing.TB, p *prog.Program, pa *ProfileArtifact, memo *equiv.Memo) *PackageSet {
	tb.Helper()
	cfg := ScaledConfig()
	cfg.Equiv = true
	clone := p.Clone()
	img, err := clone.Linearize()
	if err != nil {
		tb.Fatal(err)
	}
	ra, err := RegionStage(cfg, img, pa)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := PackageStageReusing(cfg, clone, img, ra, obs.Nop{}, memo)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// BenchmarkPackageStageDaemon times the package stage of one vpackd
// repack on vpr's daemon-shaped profile with Equiv on: about 480 packages
// installed into one program. A pass that rescans the whole program per
// package makes this cost grow with the square of the program's size.
func BenchmarkPackageStageDaemon(b *testing.B) {
	p, _, pa := daemonProfile(b, "vpr")
	cfg := ScaledConfig()
	cfg.Equiv = true
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := p.Clone()
		img, err := clone.Linearize()
		if err != nil {
			b.Fatal(err)
		}
		ra, err := RegionStage(cfg, img, pa)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := PackageStage(cfg, clone, img, ra); err != nil {
			b.Fatal(err)
		}
	}
}
