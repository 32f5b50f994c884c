package prog

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestCrossClassOperandsRejected builds one-instruction programs whose
// instruction names a register of the wrong class. Verify and Linearize
// must both refuse each with an *isa.OperandError naming the instruction,
// so no image ever carries an operand an interpreter cannot index.
func TestCrossClassOperandsRejected(t *testing.T) {
	r1, r2, r3 := isa.Reg(1), isa.Reg(2), isa.Reg(3)
	f1, f2, f3 := isa.F(1), isa.F(2), isa.F(3)
	cases := []struct {
		name    string
		emit    func(bd *Builder)
		op      isa.Opcode
		operand string
		reg     isa.Reg
	}{
		{"add r1, f2, r3", func(bd *Builder) { bd.Op3(isa.ADD, r1, f2, r3) }, isa.ADD, "rs1", f2},
		{"fadd f1, r2, f3", func(bd *Builder) { bd.Op3(isa.FADD, f1, r2, f3) }, isa.FADD, "rs1", r2},
		{"beq f1, r0, L", func(bd *Builder) {
			l := bd.NewBlock()
			bd.Branch(isa.BEQ, f1, isa.R0, l, l)
			bd.SetBlock(l)
		}, isa.BEQ, "rs1", f1},
		{"fld r1, 0(r2)", func(bd *Builder) { bd.OpI(isa.FLD, r1, r2, 0) }, isa.FLD, "rd", r1},
		{"fcvtif r1, r2", func(bd *Builder) { bd.Emit(Ins{Inst: isa.Inst{Op: isa.FCVTIF, Rd: r1, Rs1: r2}}) }, isa.FCVTIF, "rd", r1},
		{"fst r2, 0(r1)", func(bd *Builder) { bd.Emit(Ins{Inst: isa.Inst{Op: isa.FST, Rs1: r1, Rs2: r2}}) }, isa.FST, "rs2", r2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bd := NewBuilder()
			bd.Func("main")
			bd.Main()
			c.emit(bd)
			bd.Halt()
			_, lerr := bd.P.Linearize()
			for _, step := range []struct {
				name string
				err  error
			}{{"Verify", bd.P.Verify()}, {"Linearize", lerr}} {
				var oe *isa.OperandError
				if !errors.As(step.err, &oe) {
					t.Fatalf("%s: got %v, want an *isa.OperandError", step.name, step.err)
				}
				if oe.Inst.Op != c.op || oe.Operand != c.operand {
					t.Errorf("%s: error names %s of %v, want %s of %v", step.name, oe.Operand, oe.Inst, c.operand, c.op)
				}
				msg := step.err.Error()
				if !strings.Contains(msg, c.op.String()+" ") || !strings.Contains(msg, c.reg.String()) {
					t.Errorf("%s: message %q does not name the instruction", step.name, msg)
				}
			}
		})
	}
}
