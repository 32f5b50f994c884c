package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/prog"
)

// Disassemble renders a program in assembler syntax. Labels are the
// globally unique `B<ID>` names, so cross-function references produced by
// package extraction render (and reassemble) correctly.
//
// The output is designed to reassemble to a semantically identical program:
// `Assemble(Disassemble(p))` linearizes to the same code image as p, though
// block identities may differ (non-adjacent branch fallthroughs become tiny
// explicit jump blocks, exactly the jumps the linearizer would synthesize).
func Disassemble(p *prog.Program) string {
	buf := make([]byte, 0, disasmSizeHint(p))
	if len(p.Data) > 0 {
		const perLine = 8
		for i := 0; i < len(p.Data); i += perLine {
			end := i + perLine
			if end > len(p.Data) {
				end = len(p.Data)
			}
			buf = append(buf, ".data"...)
			for _, v := range p.Data[i:end] {
				buf = strconv.AppendInt(append(buf, ' '), v, 10)
			}
			buf = append(buf, '\n')
		}
	}
	label := func(buf []byte, b *prog.Block) []byte {
		return strconv.AppendInt(append(buf, 'B'), int64(b.ID), 10)
	}
	jmp := func(buf []byte, b *prog.Block) []byte {
		return append(label(append(buf, "  jmp "...), b), '\n')
	}

	for _, f := range p.Funcs {
		buf = append(append(append(buf, "\n.func "...), f.Name...), '\n')
		if p.Main == f {
			buf = append(buf, ".main\n"...)
		}
		if f.IsPackage {
			buf = append(strconv.AppendInt(append(buf, ".package "...), int64(f.PhaseID), 10), '\n')
		}
		for bi, b := range f.Blocks {
			buf = append(label(buf, b), ':')
			if len(b.ExitConsumes) > 0 {
				buf = append(buf, " ; exit consumes"...)
				for _, r := range b.ExitConsumes {
					buf = r.Append(append(buf, ' '))
				}
			}
			buf = append(buf, '\n')
			for _, in := range b.Insts {
				if in.BlockTarget != nil {
					buf = in.Rd.Append(append(buf, "  la "...))
					buf = append(label(append(buf, ", "...), in.BlockTarget), '\n')
					continue
				}
				buf = append(in.Inst.Append(append(buf, "  "...)), '\n')
			}
			var next *prog.Block
			if bi+1 < len(f.Blocks) {
				next = f.Blocks[bi+1]
			}
			switch b.Kind {
			case prog.TermFall:
				if b.Next != next {
					buf = jmp(buf, b.Next)
				}
			case prog.TermBranch:
				buf = append(append(buf, "  "...), b.CmpOp.String()...)
				buf = b.Rs1.Append(append(buf, ' '))
				buf = b.Rs2.Append(append(buf, ", "...))
				buf = append(label(append(buf, ", "...), b.Taken), '\n')
				if b.Next != next {
					buf = jmp(buf, b.Next)
				}
			case prog.TermCall:
				buf = append(append(append(buf, "  call "...), b.Callee.Name...), '\n')
				if b.Next != next {
					buf = jmp(buf, b.Next)
				}
			case prog.TermRet:
				buf = append(buf, "  ret\n"...)
			case prog.TermHalt:
				buf = append(buf, "  halt\n"...)
			case prog.TermJumpReg:
				buf = append(b.Rs1.Append(append(buf, "  jr "...)), '\n')
			}
		}
	}
	return string(buf)
}

// disasmSizeHint estimates Disassemble's output length, erring high, so
// the text is built in one allocation: about 12 bytes per data word, a
// header per function, a label line and terminator lines per block (plus
// 4 bytes per exit-consumed register), and 28 bytes per instruction line.
func disasmSizeHint(p *prog.Program) int {
	n := 12 * len(p.Data)
	for _, f := range p.Funcs {
		n += 32 + len(f.Name)
		for _, b := range f.Blocks {
			n += 48 + 4*len(b.ExitConsumes) + 28*len(b.Insts)
		}
	}
	return n
}

// DisassembleImage renders a linearized code image with one slot per line,
// for debugging dumps.
func DisassembleImage(img *prog.Image) string {
	var sb strings.Builder
	var prev *prog.Block
	for addr, in := range img.Code {
		if b := img.AddrBlock[addr]; b != prev {
			fmt.Fprintf(&sb, "%s:  ; %s\n", b, b.Fn.Name)
			prev = b
		}
		fmt.Fprintf(&sb, "%6d  %s\n", addr, in)
	}
	return sb.String()
}
