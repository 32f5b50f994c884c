package prog

import (
	"fmt"

	"repro/internal/isa"
)

// Verify checks the structural invariants every pipeline stage must
// preserve. It returns the first violation found, or nil.
//
// Invariants:
//   - Main is set and belongs to the program.
//   - every function has at least one block; every block's Fn back-pointer
//     is correct; block IDs are unique program-wide.
//   - terminator fields are consistent with Kind (Taken set only on
//     branches, Callee set only on calls, CmpOp a conditional branch
//     opcode, ...).
//   - every arc target and call target belongs to this program. Arcs may
//     cross function boundaries only when a package function is involved
//     (launch points, package links and side exits back to original code).
//   - instruction operands are valid registers of the class each opcode
//     requires (isa.Inst.CheckOperands), terminators' compare and jump
//     registers included; control-flow opcodes never appear in block
//     bodies; LA instructions with a BlockTarget point at blocks of this
//     program.
func (p *Program) Verify() error {
	if p.Main == nil {
		return fmt.Errorf("prog: verify: Main is nil")
	}
	funcSet := make(map[*Func]bool, len(p.Funcs))
	blockSet := make(map[*Block]bool)
	ids := make(map[int]*Block)
	for _, f := range p.Funcs {
		if funcSet[f] {
			return fmt.Errorf("prog: verify: function %s appears twice", f.Name)
		}
		funcSet[f] = true
		if len(f.Blocks) == 0 {
			return fmt.Errorf("prog: verify: function %s has no blocks", f.Name)
		}
		for _, b := range f.Blocks {
			if b.Fn != f {
				return fmt.Errorf("prog: verify: block %s has Fn %q, is listed in %q", b, b.Fn.Name, f.Name)
			}
			if blockSet[b] {
				return fmt.Errorf("prog: verify: block %s appears twice", b)
			}
			blockSet[b] = true
			if other, dup := ids[b.ID]; dup {
				return fmt.Errorf("prog: verify: blocks %s and %s share ID %d", b, other, b.ID)
			}
			ids[b.ID] = b
		}
	}
	if !funcSet[p.Main] {
		return fmt.Errorf("prog: verify: Main %q is not in Funcs", p.Main.Name)
	}

	checkArc := func(from, to *Block, what string) error {
		if !blockSet[to] {
			return fmt.Errorf("prog: verify: block %s %s target %s is not in the program", from, what, to)
		}
		if to.Fn != from.Fn && !from.Fn.IsPackage && !to.Fn.IsPackage {
			return fmt.Errorf("prog: verify: block %s %s target %s crosses functions with no package involved", from, what, to)
		}
		return nil
	}

	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			switch b.Kind {
			case TermFall:
				if b.Next == nil {
					return fmt.Errorf("prog: verify: fall block %s has nil Next", b)
				}
				if b.Taken != nil || b.Callee != nil {
					return fmt.Errorf("prog: verify: fall block %s has stray terminator fields", b)
				}
				if err := checkArc(b, b.Next, "fallthrough"); err != nil {
					return err
				}
			case TermBranch:
				if b.Taken == nil || b.Next == nil {
					return fmt.Errorf("prog: verify: branch block %s missing Taken or Next", b)
				}
				if !b.CmpOp.IsCondBranch() {
					return fmt.Errorf("prog: verify: branch block %s has CmpOp %v", b, b.CmpOp)
				}
				if err := (isa.Inst{Op: b.CmpOp, Rs1: b.Rs1, Rs2: b.Rs2}).CheckOperands(); err != nil {
					return fmt.Errorf("prog: verify: branch block %s: %w", b, err)
				}
				if b.Callee != nil {
					return fmt.Errorf("prog: verify: branch block %s has Callee set", b)
				}
				if err := checkArc(b, b.Taken, "taken"); err != nil {
					return err
				}
				if err := checkArc(b, b.Next, "fallthrough"); err != nil {
					return err
				}
			case TermCall:
				if b.Callee == nil || b.Next == nil {
					return fmt.Errorf("prog: verify: call block %s missing Callee or Next", b)
				}
				if !funcSet[b.Callee] {
					return fmt.Errorf("prog: verify: call block %s targets function %q not in program", b, b.Callee.Name)
				}
				if b.Taken != nil {
					return fmt.Errorf("prog: verify: call block %s has Taken set", b)
				}
				// The continuation must stay in the same function (or
				// package): a call returns to pc+1.
				if err := checkArc(b, b.Next, "continuation"); err != nil {
					return err
				}
			case TermRet, TermHalt:
				if b.Taken != nil || b.Next != nil || b.Callee != nil {
					return fmt.Errorf("prog: verify: %v block %s has stray terminator fields", b.Kind, b)
				}
			case TermJumpReg:
				if err := (isa.Inst{Op: isa.JR, Rs1: b.Rs1}).CheckOperands(); err != nil {
					return fmt.Errorf("prog: verify: jr block %s: %w", b, err)
				}
				if b.Taken != nil || b.Next != nil || b.Callee != nil {
					return fmt.Errorf("prog: verify: jr block %s has stray terminator fields", b)
				}
			default:
				return fmt.Errorf("prog: verify: block %s has invalid terminator kind %d", b, uint8(b.Kind))
			}
			for i, in := range b.Insts {
				if !in.Op.Valid() {
					return fmt.Errorf("prog: verify: block %s inst %d has invalid opcode", b, i)
				}
				if in.Op.IsControl() {
					return fmt.Errorf("prog: verify: block %s inst %d is control op %v inside block body", b, i, in.Op)
				}
				for _, r := range [...]isa.Reg{in.Rd, in.Rs1, in.Rs2} {
					if !r.Valid() {
						return fmt.Errorf("prog: verify: block %s inst %d has invalid register %d", b, i, uint8(r))
					}
				}
				if err := in.CheckOperands(); err != nil {
					return fmt.Errorf("prog: verify: block %s inst %d: %w", b, i, err)
				}
				if in.BlockTarget != nil {
					if in.Op != isa.LA {
						return fmt.Errorf("prog: verify: block %s inst %d: BlockTarget on non-LA op %v", b, i, in.Op)
					}
					if !blockSet[in.BlockTarget] {
						return fmt.Errorf("prog: verify: block %s inst %d: LA target %s not in program", b, i, in.BlockTarget)
					}
				}
			}
		}
	}
	return nil
}
