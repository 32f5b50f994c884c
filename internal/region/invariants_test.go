package region_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/hsd"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/verify"
	"repro/internal/workload"
)

// profileDB profiles an image under the scaled detector, like core.ProfileStage
// (which tests here cannot import without a cycle).
func profileDB(t *testing.T, img *prog.Image) *phasedb.DB {
	t.Helper()
	db := phasedb.New(phasedb.DefaultConfig())
	det := hsd.New(hsd.ScaledConfig(), func(h hsd.HotSpot) { db.Record(h) })
	m := cpu.NewMachine(img)
	if err := m.Run(0, func(si *cpu.StepInfo) {
		if si.Inst.Op.IsCondBranch() {
			det.Branch(si.PC, si.Taken)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// Properties promised in DESIGN.md §6, checked over every real workload's
// real phases. The per-region invariants (every profiled branch block is
// Hot, profiled arcs are never Unknown, Cold inference never fires with
// inference disabled) are verify.Region's region/* rules — this test is a
// thin wrapper over the verifier, plus the determinism check the verifier
// cannot see from a single region.
func TestRegionInvariantsOverSuite(t *testing.T) {
	for _, b := range []string{"m88ksim", "perl", "vpr"} {
		b := b
		t.Run(b, func(t *testing.T) {
			bench, err := workload.ByName(b)
			if err != nil {
				t.Fatal(err)
			}
			in := bench.Inputs[0]
			in.Scale = 1
			p := bench.Build(in)
			img, err := p.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			db := profileDB(t, img)
			for _, ph := range db.Phases {
				for _, enable := range []bool{true, false} {
					cfg := region.DefaultConfig()
					cfg.EnableInference = enable
					r1, err := region.Identify(cfg, img, ph)
					if err != nil {
						continue
					}
					r2, err := region.Identify(cfg, img, ph)
					if err != nil {
						t.Fatalf("phase %d: second identification failed: %v", ph.ID, err)
					}
					// Determinism.
					if len(r1.BlockTemp) != len(r2.BlockTemp) || r1.NumHot() != r2.NumHot() {
						t.Fatalf("phase %d: identification not deterministic", ph.ID)
					}
					for blk, temp := range r1.BlockTemp {
						if r2.BlockTemp[blk] != temp {
							t.Fatalf("phase %d: block %v temp differs across runs", ph.ID, blk)
						}
					}
					// region/profiled-hot, region/profiled-arc, region/no-cold.
					if err := verify.Region("test", cfg, img, ph, r1); err != nil {
						for _, d := range verify.Diagnostics(err) {
							t.Errorf("phase %d: %s", ph.ID, d)
						}
					}
				}
			}
		})
	}
}

// Inference must be monotone relative to no-inference: everything Hot
// without inference stays Hot with it (the rules only add knowledge).
func TestInferenceIsMonotone(t *testing.T) {
	bench, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	p := bench.Build(in)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	db := profileDB(t, img)
	checked := 0
	for _, ph := range db.Phases {
		off := region.DefaultConfig()
		off.EnableInference = false
		off.MaxGrowBlocks = 0
		rOff, err := region.Identify(off, img, ph)
		if err != nil {
			continue
		}
		on := region.DefaultConfig()
		on.MaxGrowBlocks = 0
		rOn, err := region.Identify(on, img, ph)
		if err != nil {
			t.Fatal(err)
		}
		for blk, temp := range rOff.BlockTemp {
			if temp == region.Hot && rOn.BlockTemp[blk] != region.Hot {
				t.Errorf("phase %d: block %v Hot without inference but not with it", ph.ID, blk)
			}
		}
		if rOn.NumHot() < rOff.NumHot() {
			t.Errorf("phase %d: inference shrank the region: %d -> %d",
				ph.ID, rOff.NumHot(), rOn.NumHot())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no phases to check")
	}
}
