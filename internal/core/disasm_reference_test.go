package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
	"repro/internal/workload"
)

// disassembleFmt is asm.Disassemble as it was written with fmt, kept as
// the reference the strconv version must match byte for byte: PackedAsm
// feeds PackedHash, the store's keys and the package-set golden.
// Instructions and registers render through their String methods, which
// internal/isa checks against their own fmt references.
func disassembleFmt(p *prog.Program) string {
	var sb strings.Builder
	if len(p.Data) > 0 {
		const perLine = 8
		for i := 0; i < len(p.Data); i += perLine {
			end := i + perLine
			if end > len(p.Data) {
				end = len(p.Data)
			}
			sb.WriteString(".data")
			for _, v := range p.Data[i:end] {
				fmt.Fprintf(&sb, " %d", v)
			}
			sb.WriteByte('\n')
		}
	}
	label := func(b *prog.Block) string { return fmt.Sprintf("B%d", b.ID) }
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "\n.func %s\n", f.Name)
		if p.Main == f {
			sb.WriteString(".main\n")
		}
		if f.IsPackage {
			fmt.Fprintf(&sb, ".package %d\n", f.PhaseID)
		}
		for bi, b := range f.Blocks {
			fmt.Fprintf(&sb, "%s:", label(b))
			if len(b.ExitConsumes) > 0 {
				sb.WriteString(" ; exit consumes")
				for _, r := range b.ExitConsumes {
					fmt.Fprintf(&sb, " %s", r)
				}
			}
			sb.WriteByte('\n')
			for _, in := range b.Insts {
				if in.BlockTarget != nil {
					fmt.Fprintf(&sb, "  la %s, %s\n", in.Rd, label(in.BlockTarget))
					continue
				}
				fmt.Fprintf(&sb, "  %s\n", in.Inst)
			}
			var next *prog.Block
			if bi+1 < len(f.Blocks) {
				next = f.Blocks[bi+1]
			}
			switch b.Kind {
			case prog.TermFall:
				if b.Next != next {
					fmt.Fprintf(&sb, "  jmp %s\n", label(b.Next))
				}
			case prog.TermBranch:
				fmt.Fprintf(&sb, "  %s %s, %s, %s\n", b.CmpOp, b.Rs1, b.Rs2, label(b.Taken))
				if b.Next != next {
					fmt.Fprintf(&sb, "  jmp %s\n", label(b.Next))
				}
			case prog.TermCall:
				fmt.Fprintf(&sb, "  call %s\n", b.Callee.Name)
				if b.Next != next {
					fmt.Fprintf(&sb, "  jmp %s\n", label(b.Next))
				}
			case prog.TermRet:
				sb.WriteString("  ret\n")
			case prog.TermHalt:
				sb.WriteString("  halt\n")
			case prog.TermJumpReg:
				fmt.Fprintf(&sb, "  jr %s\n", b.Rs1)
			}
		}
	}
	return sb.String()
}

func checkDisassembly(t *testing.T, label string, p *prog.Program) {
	t.Helper()
	got, want := asm.Disassemble(p), disassembleFmt(p)
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Errorf("%s: disassembly differs from the fmt reference at byte %d:\n got  %q\n want %q",
		label, i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

// TestDisassembleMatchesFmt checks asm.Disassemble against the fmt
// reference on all 19 suite programs and on the package-set golden's
// packed programs, which carry every construct packaging adds: package
// headers, exit-consumer annotations, cross-function labels and LA.
func TestDisassembleMatchesFmt(t *testing.T) {
	for _, b := range workload.Ordered() {
		for _, in := range b.Inputs {
			checkDisassembly(t, b.Name+"/"+in.Name, b.Build(in))
		}
	}
	for _, bench := range packageSetGoldenBenches {
		set := daemonPackageStage(t, bench)
		checkDisassembly(t, bench+" packed", set.packed)
	}
}
