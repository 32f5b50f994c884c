package opt

import (
	"repro/internal/prog"
)

// MergeBlocks fuses single-entry fallthrough chains inside a package
// function. Pruning cold paths removes merge points' other predecessors
// (§5.4: "the elimination of cold paths may increase block scope by
// eliminating side entrances"), so what used to be a diamond join with two
// predecessors is often left with one — merging it into that predecessor
// hands the list scheduler a larger window.
//
// A successor is merged only when it is reachable from exactly one place:
// a single program-wide predecessor, no LA instruction materializing its
// address, not a function entry (call/launch target). MergeBlocks returns
// the number of blocks fused.
func MergeBlocks(p *prog.Program, fn *prog.Func) int {
	return mergeBlocks(fn, p.EnteredBlocks(), nil)
}

// mergeBlocks is MergeBlocks against a precomputed entered set
// (prog.Program.EnteredBlocks): a block in it has a predecessor outside fn
// or an escaping address and is never fused, so a single in-function
// predecessor is exactly a single program-wide one. The counts stay exact
// across merges: fusing c into its sole predecessor b hands c's arcs to b,
// whose only arc was to c, so every surviving block keeps its count.
func mergeBlocks(fn *prog.Func, entered map[*prog.Block]bool, rec *PassRecord) int {
	preds := make(map[*prog.Block]int, len(fn.Blocks))
	var succs []*prog.Block
	for _, b := range fn.Blocks {
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			if s.Fn == fn {
				preds[s]++
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
			if entered[c] || preds[c] != 1 {
				continue
			}
			// Fuse c into b.
			b.Insts = append(b.Insts, c.Insts...)
			b.Kind = c.Kind
			b.CmpOp = c.CmpOp
			b.Rs1, b.Rs2 = c.Rs1, c.Rs2
			b.Taken, b.Next, b.Callee = c.Taken, c.Next, c.Callee
			if len(c.ExitConsumes) > 0 && len(b.ExitConsumes) == 0 {
				b.ExitConsumes = c.ExitConsumes
			}
			// Remove c from the layout.
			for i, blk := range fn.Blocks {
				if blk == c {
					fn.Blocks = append(fn.Blocks[:i], fn.Blocks[i+1:]...)
					break
				}
			}
			if rec != nil {
				rec.Merges = append(rec.Merges, MergeRecord{Into: b, Fused: c})
			}
			merged++
			changed = true
			break // layout changed under us; restart the scan
		}
	}
	return merged
}
