package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/equiv"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pack"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/workload"
)

// mergeBlocksReference is the merge pass as it was before the package
// stage computed one entered-block set: whole-program predecessor lists
// recomputed at entry and after every fusion, and a whole-program LA scan.
// It survives only as the oracle the stage's linear merge is checked
// against.
func mergeBlocksReference(p *prog.Program, fn *prog.Func, rec *opt.PassRecord) int {
	p.ComputePreds()
	laTargets := make(map[*prog.Block]bool)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.BlockTarget != nil {
					laTargets[in.BlockTarget] = true
				}
			}
		}
	}
	merged := 0
	changed := true
	for changed {
		changed = false
		for _, b := range fn.Blocks {
			if b.Kind != prog.TermFall {
				continue
			}
			c := b.Next
			if c == nil || c.Fn != fn || c == b || c == fn.Entry() {
				continue
			}
			if laTargets[c] || len(c.Preds()) != 1 {
				continue
			}
			b.Insts = append(b.Insts, c.Insts...)
			b.Kind = c.Kind
			b.CmpOp = c.CmpOp
			b.Rs1, b.Rs2 = c.Rs1, c.Rs2
			b.Taken, b.Next, b.Callee = c.Taken, c.Next, c.Callee
			if len(c.ExitConsumes) > 0 && len(b.ExitConsumes) == 0 {
				b.ExitConsumes = c.ExitConsumes
			}
			for i, blk := range fn.Blocks {
				if blk == c {
					fn.Blocks = append(fn.Blocks[:i], fn.Blocks[i+1:]...)
					break
				}
			}
			if rec != nil {
				rec.Merges = append(rec.Merges, opt.MergeRecord{Into: b, Fused: c})
			}
			merged++
			changed = true
			p.ComputePreds()
			break
		}
	}
	return merged
}

// captureEntriesReference is equiv.Capture's entry set as it was computed
// before the stage's entered set: the seeds and fn's entry, every block of
// fn with a predecessor in another function (whole-program predecessor
// pass), and every LA target in fn (whole-program scan), in ID order.
func captureEntriesReference(p *prog.Program, fn *prog.Func, entries []*prog.Block) []*prog.Block {
	seen := make(map[*prog.Block]bool)
	var out []*prog.Block
	add := func(b *prog.Block) {
		if b != nil && b.Fn == fn && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	for _, b := range entries {
		add(b)
	}
	add(fn.Entry())
	p.ComputePreds()
	for _, b := range fn.Blocks {
		for _, pr := range b.Preds() {
			if pr.Fn != fn {
				add(b)
				break
			}
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				if bt := b.Insts[i].BlockTarget; bt != nil && bt.Fn == fn {
					add(bt)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// installForReference runs the package stage up to the optimization
// passes on p — construction, installation and linking, exactly as
// PackageStageObserved does — and returns the result with p's regions by
// phase.
func installForReference(t *testing.T, cfg Config, p *prog.Program, ra *RegionArtifact) (*pack.Result, map[int]*region.Region) {
	t.Helper()
	regions, err := ra.bind(p)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*pack.Package
	for _, r := range regions {
		if ps, err := pack.BuildPhaseObserved(cfg.Pack, p, r, obs.Nop{}); err == nil {
			pkgs = append(pkgs, ps...)
		}
	}
	if len(pkgs) == 0 {
		return nil, nil
	}
	res, err := pack.InstallObserved(cfg.Pack, p, pkgs, obs.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	byPhase := make(map[int]*region.Region, len(regions))
	for _, r := range regions {
		byPhase[r.PhaseID] = r
	}
	return res, byPhase
}

func packageEntries(pk *pack.Package) []*prog.Block {
	entries := make([]*prog.Block, 0, len(pk.Entries))
	for _, c := range pk.Entries {
		entries = append(entries, c)
	}
	return entries
}

func blockIDs(bs []*prog.Block) []int {
	ids := make([]int, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	return ids
}

func mergeIDs(ms []opt.MergeRecord) []int {
	ids := make([]int, 0, 2*len(ms))
	for _, m := range ms {
		ids = append(ids, m.Into.ID, m.Fused.ID)
	}
	return ids
}

// checkAgainstReference packages two clones of p from ra the way the stage
// does: one optimized with the stage's entered set, the other with the
// whole-program reference merge. Before any pass runs, Capture's entry
// list must equal the reference's for every package; then, package by
// package in stage order, both merges must fuse the same blocks in the
// same order and leave the same layout, and the remaining passes run on
// both so later packages see identical programs. It returns the number of
// packages and merges compared.
func checkAgainstReference(t *testing.T, label string, cfg Config, p *prog.Program, ra *RegionArtifact) (pkgs, merges int) {
	t.Helper()
	a, b := p.Clone(), p.Clone()
	resA, regA := installForReference(t, cfg, a, ra)
	resB, regB := installForReference(t, cfg, b, ra)
	if resA == nil {
		return 0, 0
	}
	if len(resA.Packages) != len(resB.Packages) {
		t.Fatalf("%s: clones built %d and %d packages", label, len(resA.Packages), len(resB.Packages))
	}
	entered := a.EnteredBlocks()
	for _, pk := range resA.Packages {
		entries := packageEntries(pk)
		got := blockIDs(equiv.Capture(pk.Fn, entries, entered).Entries())
		want := blockIDs(captureEntriesReference(a, pk.Fn, entries))
		if !slices.Equal(got, want) {
			t.Errorf("%s: %s: Capture entries %v, reference %v", label, pk.Fn.Name, got, want)
		}
	}
	rest := cfg.passes()
	rest.Merge = false
	for i, pa := range resA.Packages {
		pb := resB.Packages[i]
		rgA, rgB := regA[pa.PhaseID], regB[pb.PhaseID]
		if rgA == nil {
			continue
		}
		recA, recB := &opt.PassRecord{}, &opt.PassRecord{}
		if err := opt.ApplyPasses(opt.Passes{Merge: true, Record: recA}, entered, pa.Fn, nil, rgA, obs.Nop{}); err != nil {
			t.Fatal(err)
		}
		mergeBlocksReference(b, pb.Fn, recB)
		if got, want := mergeIDs(recA.Merges), mergeIDs(recB.Merges); !slices.Equal(got, want) {
			t.Errorf("%s: %s: merges (into, fused) %v, reference %v", label, pa.Fn.Name, got, want)
		}
		if got, want := blockIDs(pa.Fn.Blocks), blockIDs(pb.Fn.Blocks); !slices.Equal(got, want) {
			t.Errorf("%s: %s: blocks after merge %v, reference %v", label, pa.Fn.Name, got, want)
		}
		pkgs++
		merges += len(recA.Merges)
		if err := opt.ApplyPasses(rest, entered, pa.Fn, packageEntries(pa), rgA, obs.Nop{}); err != nil {
			t.Fatal(err)
		}
		if err := opt.ApplyPasses(rest, nil, pb.Fn, packageEntries(pb), rgB, obs.Nop{}); err != nil {
			t.Fatal(err)
		}
	}
	return pkgs, merges
}

// TestMergeMatchesReferenceSuite checks the stage's merge and Capture
// against the whole-program reference on every package of every suite
// input under all four variants.
func TestMergeMatchesReferenceSuite(t *testing.T) {
	cfg := ScaledConfig()
	pkgs, merges := 0, 0
	for _, b := range workload.Ordered() {
		for _, in := range b.Inputs {
			p := b.Build(in)
			img, err := p.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			pa, err := ProfileStage(cfg, img, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range Variants() {
				vcfg := v.Apply(cfg)
				ra, err := RegionStage(vcfg, img, pa)
				if err != nil {
					continue
				}
				n, m := checkAgainstReference(t, b.Name+"/"+in.Name+" "+v.Name(), vcfg, p, ra)
				pkgs += n
				merges += m
			}
		}
	}
	if merges == 0 {
		t.Fatalf("no merges across %d packages: the comparison is vacuous", pkgs)
	}
	t.Logf("%d packages, %d merges identical to the reference", pkgs, merges)
}

// TestMergeMatchesReferenceDaemon is the same check on the package-set
// golden's daemon-shaped profiles, where hundreds of packages share one
// program.
func TestMergeMatchesReferenceDaemon(t *testing.T) {
	cfg := ScaledConfig()
	for _, bench := range packageSetGoldenBenches {
		p, img, pa := daemonProfile(t, bench)
		ra, err := RegionStage(cfg, img, pa)
		if err != nil {
			t.Fatal(err)
		}
		n, m := checkAgainstReference(t, bench+" daemon", cfg, p, ra)
		if m == 0 {
			t.Errorf("%s: no merges across %d packages: the comparison is vacuous", bench, n)
		}
		t.Logf("%s: %d packages, %d merges identical to the reference", bench, n, m)
	}
}
