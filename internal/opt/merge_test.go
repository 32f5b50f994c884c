package opt

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// linkedPackages builds two package functions that reach into each other
// the way linked siblings do:
//
//	pkgA: a0 -> a1 -> a2 -> pkgB.b1   (a1 holds `la r9, pkgB.b3`)
//	pkgB: b0 -> b1 -> b2 -> b3 -> b4 (halt)
//
// Every arc is a fallthrough. b1 is entered by A's linked exit and b3 by
// A's LA, so neither may be fused; a1, a2, b2 and b4 each have one
// predecessor and may.
func linkedPackages() (p *prog.Program, a, b *prog.Func, bs []*prog.Block) {
	bd := prog.NewBuilder()
	b = bd.Func("pkgB")
	b.IsPackage = true
	bs = []*prog.Block{bd.Cur(), bd.NewBlock(), bd.NewBlock(), bd.NewBlock(), bd.NewBlock()}
	for i := 0; i < 4; i++ {
		bd.SetBlock(bs[i]).OpI(isa.ADDI, 1, 1, int64(i)).Goto(bs[i+1])
	}
	bd.SetBlock(bs[4]).Halt()

	a = bd.Func("pkgA")
	a.IsPackage = true
	a0, a1, a2 := bd.Cur(), bd.NewBlock(), bd.NewBlock()
	bd.SetBlock(a0).Li(1, 0).Goto(a1)
	bd.SetBlock(a1).OpI(isa.ADDI, 1, 1, 10).La(9, bs[3]).Goto(a2)
	bd.SetBlock(a2).OpI(isa.ADDI, 1, 1, 20).Goto(bs[1])
	return bd.P, a, b, bs
}

func fusedIDs(ms []MergeRecord) []int {
	var ids []int
	for _, m := range ms {
		ids = append(ids, m.Into.ID, m.Fused.ID)
	}
	return ids
}

func TestMergeBlocksKeepsEnteredBlocks(t *testing.T) {
	p, _, b, bs := linkedPackages()
	rec := &PassRecord{}
	if n := mergeBlocks(b, p.EnteredBlocks(), rec); n != 2 {
		t.Fatalf("merged %d blocks, want 2 (b2 into b1, b4 into b3)", n)
	}
	fused := make(map[*prog.Block]bool)
	for _, m := range rec.Merges {
		fused[m.Fused] = true
	}
	if fused[bs[1]] {
		t.Error("fused b1, the target of a linked sibling exit")
	}
	if fused[bs[3]] {
		t.Error("fused b3, the target of a sibling's LA")
	}
	if !fused[bs[2]] || !fused[bs[4]] {
		t.Errorf("single-predecessor blocks b2/b4 not fused: merges %v", fusedIDs(rec.Merges))
	}
	if len(b.Blocks) != 3 || b.Blocks[0] != bs[0] || b.Blocks[1] != bs[1] || b.Blocks[2] != bs[3] {
		t.Errorf("pkgB layout after merging: %v, want [b0 b1 b3]", b.Blocks)
	}
}

// TestMergeBlocksPackageOrderIndependent checks the invariant the package
// stage relies on to compute the entered set once: merging package A
// leaves that set unchanged and does not change which blocks package B
// fuses.
func TestMergeBlocksPackageOrderIndependent(t *testing.T) {
	p, a, b, _ := linkedPackages()
	entered := p.EnteredBlocks()
	recA := &PassRecord{}
	if n := mergeBlocks(a, entered, recA); n != 2 {
		t.Fatalf("package A merged %d blocks, want 2", n)
	}
	after := p.EnteredBlocks()
	if len(after) != len(entered) {
		t.Errorf("entered set has %d blocks after A's merges, %d before", len(after), len(entered))
	}
	for blk := range entered {
		if !after[blk] {
			t.Errorf("%s left the entered set after A's merges", blk)
		}
	}
	recB := &PassRecord{}
	mergeBlocks(b, entered, recB)

	fresh, _, freshB, _ := linkedPackages()
	recFresh := &PassRecord{}
	mergeBlocks(freshB, fresh.EnteredBlocks(), recFresh)
	if got, want := fusedIDs(recB.Merges), fusedIDs(recFresh.Merges); !slices.Equal(got, want) {
		t.Errorf("B's merges after A's: %v, with A untouched: %v", got, want)
	}
}
