package prog

import (
	"fmt"

	"repro/internal/isa"
)

// Image is a linearized program: a flat VPIR code image plus the address
// maps the profiler and region identifier need to relate dynamic PCs back
// to blocks.
type Image struct {
	Prog  *Program
	Code  []isa.Inst
	Entry int64 // address of Main's entry block

	// BlockAddr maps each block to the address of its first slot.
	BlockAddr map[*Block]int64
	// TermAddr maps each block with a materialized terminator (branch,
	// call, ret, halt) to that instruction's address. Conditional-branch
	// entries are the PCs the Hot Spot Detector profiles.
	TermAddr map[*Block]int64
	// AddrBlock maps every slot back to its owning block.
	AddrBlock []*Block
}

// BlockAt returns the block owning the instruction slot at addr, or nil.
func (img *Image) BlockAt(addr int64) *Block {
	if addr < 0 || addr >= int64(len(img.AddrBlock)) {
		return nil
	}
	return img.AddrBlock[addr]
}

// Linearize lowers the program to a flat code image. Functions are emitted
// in Program.Funcs order and blocks in Func.Blocks (layout) order, so code
// layout decisions are visible to the fetch and I-cache models. Fallthrough
// edges to non-adjacent blocks cost an extra jump slot, exactly as on a
// real machine. Every emitted instruction must pass
// isa.Inst.CheckOperands, so an image never holds a cross-class operand.
func (p *Program) Linearize() (*Image, error) {
	if p.Main == nil {
		return nil, fmt.Errorf("prog: linearize: program has no Main function")
	}
	// Pass 1: sizes and addresses.
	type layout struct {
		blocks []*Block
	}
	var order []*Block
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return nil, fmt.Errorf("prog: linearize: function %s has no blocks", f.Name)
		}
		order = append(order, f.Blocks...)
	}
	next := make(map[*Block]*Block, len(order)) // physically following block
	for i, b := range order {
		if i+1 < len(order) && order[i+1].Fn == b.Fn {
			next[b] = order[i+1]
		}
	}
	size := func(b *Block) int64 {
		n := int64(len(b.Insts))
		switch b.Kind {
		case TermFall:
			if b.Next != next[b] {
				n++ // jmp
			}
		case TermBranch:
			n++ // branch
			if b.Next != next[b] {
				n++ // jmp to fallthrough target
			}
		case TermCall:
			n++ // call
			if b.Next != next[b] {
				n++ // jmp to continuation
			}
		case TermRet, TermHalt, TermJumpReg:
			n++
		}
		return n
	}
	blockAddr := make(map[*Block]int64, len(order))
	addr := int64(0)
	for _, b := range order {
		blockAddr[b] = addr
		addr += size(b)
	}
	total := addr

	// Pass 2: emit.
	img := &Image{
		Prog:      p,
		Code:      make([]isa.Inst, 0, total),
		BlockAddr: blockAddr,
		TermAddr:  make(map[*Block]int64, len(order)),
		AddrBlock: make([]*Block, total),
	}
	emit := func(b *Block, in isa.Inst) {
		img.AddrBlock[len(img.Code)] = b
		img.Code = append(img.Code, in)
	}
	targetOf := func(b, t *Block, what string) (int64, error) {
		if t == nil {
			return 0, fmt.Errorf("prog: linearize: block %s has nil %s target", b, what)
		}
		a, ok := blockAddr[t]
		if !ok {
			return 0, fmt.Errorf("prog: linearize: block %s targets %s which is not in the program", b, t)
		}
		return a, nil
	}
	for _, b := range order {
		if got := int64(len(img.Code)); got != blockAddr[b] {
			return nil, fmt.Errorf("prog: linearize: internal error: block %s at %d, expected %d", b, got, blockAddr[b])
		}
		for _, in := range b.Insts {
			ii := in.Inst
			if in.BlockTarget != nil {
				a, ok := blockAddr[in.BlockTarget]
				if !ok {
					return nil, fmt.Errorf("prog: linearize: block %s LA targets %s which is not in the program", b, in.BlockTarget)
				}
				ii.Target = a
			}
			emit(b, ii)
		}
		switch b.Kind {
		case TermFall:
			if b.Next != next[b] {
				a, err := targetOf(b, b.Next, "fallthrough")
				if err != nil {
					return nil, err
				}
				img.TermAddr[b] = int64(len(img.Code))
				emit(b, isa.Inst{Op: isa.JMP, Target: a})
			}
		case TermBranch:
			a, err := targetOf(b, b.Taken, "taken")
			if err != nil {
				return nil, err
			}
			img.TermAddr[b] = int64(len(img.Code))
			emit(b, isa.Inst{Op: b.CmpOp, Rs1: b.Rs1, Rs2: b.Rs2, Target: a})
			if b.Next != next[b] {
				fa, err := targetOf(b, b.Next, "fallthrough")
				if err != nil {
					return nil, err
				}
				emit(b, isa.Inst{Op: isa.JMP, Target: fa})
			}
		case TermCall:
			if b.Callee == nil {
				return nil, fmt.Errorf("prog: linearize: call block %s has nil callee", b)
			}
			entry := b.Callee.Entry()
			if entry == nil {
				return nil, fmt.Errorf("prog: linearize: call block %s targets empty function %s", b, b.Callee.Name)
			}
			a, ok := blockAddr[entry]
			if !ok {
				return nil, fmt.Errorf("prog: linearize: call block %s targets function %s not in program", b, b.Callee.Name)
			}
			img.TermAddr[b] = int64(len(img.Code))
			emit(b, isa.Inst{Op: isa.CALL, Target: a})
			if b.Next != next[b] {
				fa, err := targetOf(b, b.Next, "continuation")
				if err != nil {
					return nil, err
				}
				emit(b, isa.Inst{Op: isa.JMP, Target: fa})
			}
		case TermRet:
			img.TermAddr[b] = int64(len(img.Code))
			emit(b, isa.Inst{Op: isa.RET})
		case TermHalt:
			img.TermAddr[b] = int64(len(img.Code))
			emit(b, isa.Inst{Op: isa.HALT})
		case TermJumpReg:
			img.TermAddr[b] = int64(len(img.Code))
			emit(b, isa.Inst{Op: isa.JR, Rs1: b.Rs1})
		default:
			return nil, fmt.Errorf("prog: linearize: block %s has invalid terminator %v", b, b.Kind)
		}
	}
	for pc, in := range img.Code {
		if err := in.CheckOperands(); err != nil {
			return nil, fmt.Errorf("prog: linearize: block %s: %w", img.AddrBlock[pc], err)
		}
	}
	img.Entry = blockAddr[p.Main.Entry()]
	return img, nil
}
