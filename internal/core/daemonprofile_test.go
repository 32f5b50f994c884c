package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/hsd"
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
// the branches drop out and the survivors' taken counts flip. It returns
// the served program, its image and the artifact, stamped as the daemon
// stamps one.
func buildDaemonProfile(tb testing.TB, bench string) (*prog.Program, *prog.Image, *ProfileArtifact) {
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
	db := phasedb.New(cfg.Filter)
	for _, h := range spots {
		db.Record(h)
	}
	rng := rand.New(rand.NewSource(1))
	shifted := make([]hsd.HotSpot, len(spots))
	for i, h := range spots {
		shifted[i] = shiftHotSpot(rng, h)
	}
	for i := 0; i < daemonShiftedRecords; i++ {
		db.Record(shifted[i%len(shifted)])
	}
	pa := &ProfileArtifact{
		Schema:      ProfileArtifactSchema,
		Program:     bench,
		ProgramHash: ImageHash(img),
		ProfileKey:  cfg.ProfileKey(),
		Phases:      db.Snapshot(),
	}
	return p, img, pa
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
		f.p, f.img, f.pa = buildDaemonProfile(tb, bench)
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

// repackDaemonProfile is one repack of pa against a fresh clone of p.
func repackDaemonProfile(tb testing.TB, p *prog.Program, pa *ProfileArtifact) *PackageSet {
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
	set, err := PackageStage(cfg, clone, img, ra)
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
