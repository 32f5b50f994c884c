package isa

import (
	"errors"
	"math"
	"testing"
)

// TestEvalIntSemantics pins the integer ALU's corner cases by hand: the
// definitions every interpreter and the prover share.
func TestEvalIntSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   Opcode
		a, b int64
		want int64
	}{
		{"add", ADD, 3, 4, 7},
		{"add-wrap", ADD, math.MaxInt64, 1, math.MinInt64},
		{"div0", DIV, 9, 0, 0},
		{"rem0", REM, 9, 0, 0},
		{"divneg", DIV, -7, 2, -3},
		{"remneg", REM, -7, 2, -1},
		{"div-overflow", DIV, math.MinInt64, -1, math.MinInt64},
		{"rem-overflow", REM, math.MinInt64, -1, 0},
		{"shl-mask", SHL, 1, 65, 2},
		{"shl-64", SHL, 1, 64, 1},
		{"shl-neg-amount", SHL, 1, -1, math.MinInt64},
		{"shr-logical", SHR, -1, 60, 15},
		{"shr-63", SHR, math.MinInt64, 63, 1},
		{"slt-true", SLT, -1, 0, 1},
		{"slt-false", SLT, 0, -1, 0},
		{"slt-signed", SLT, math.MinInt64, math.MaxInt64, 1},
		{"seq", SEQ, 5, 5, 1},
		{"seq-false", SEQ, 5, -5, 0},
		{"addi", ADDI, 3, -4, -1},
		{"muli", MULI, 3, -4, -12},
		{"andi", ANDI, 6, 3, 2},
		{"ori", ORI, 6, 3, 7},
		{"xori", XORI, 6, 3, 5},
		{"shli-mask", SHLI, 1, 65, 2},
		{"shri-logical", SHRI, -1, 60, 15},
		{"slti", SLTI, -1, 0, 1},
	}
	for _, c := range cases {
		if got := EvalInt(c.op, c.a, c.b); got != c.want {
			t.Errorf("%s: EvalInt(%v, %d, %d) = %d, want %d", c.name, c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalFPSemantics(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		op   Opcode
		a, b float64
		want float64
	}{
		{"fadd", FADD, 1.5, 2.25, 3.75},
		{"fsub", FSUB, 1.5, 2.25, -0.75},
		{"fmul", FMUL, 1.5, -2, -3},
		{"fdiv", FDIV, 3, 2, 1.5},
		{"fdiv0", FDIV, 3, 0, 0},
		{"fdiv-neg0", FDIV, 3, math.Copysign(0, -1), 0},
		{"fdiv-inf", FDIV, 3, inf, 0},
		{"fadd-inf", FADD, inf, 1, inf},
	}
	for _, c := range cases {
		got := EvalFP(c.op, c.a, c.b)
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: EvalFP(%v, %g, %g) = %g, want %g", c.name, c.op, c.a, c.b, got, c.want)
		}
	}
	if got := EvalFP(FDIV, math.NaN(), 0); got != 0 {
		t.Errorf("NaN fdiv 0 = %g, want 0", got)
	}
	if got := EvalFP(FDIV, 1, math.NaN()); !math.IsNaN(got) {
		t.Errorf("1 fdiv NaN = %g, want NaN", got)
	}
	if FSlt(-1, 0) != 1 || FSlt(0, -1) != 0 || FSlt(math.NaN(), 0) != 0 || FSlt(0, math.NaN()) != 0 {
		t.Error("FSlt corner cases wrong")
	}
}

func TestTaken(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b int64
		want bool
	}{
		{BEQ, 4, 4, true},
		{BEQ, 4, -4, false},
		{BNE, 4, -4, true},
		{BNE, 4, 4, false},
		{BLT, -1, 0, true},
		{BLT, math.MinInt64, math.MaxInt64, true},
		{BLT, 0, 0, false},
		{BGE, 0, 0, true},
		{BGE, math.MaxInt64, math.MinInt64, true},
		{BGE, -1, 0, false},
		{JMP, 0, 0, false},
		{ADD, 1, 1, false},
	}
	for _, c := range cases {
		if got := Taken(c.op, c.a, c.b); got != c.want {
			t.Errorf("Taken(%v, %d, %d) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

// TestEvalIntDomain checks that IsIntALU names exactly the opcodes
// EvalInt defines, and that every register-immediate opcode computes what
// its register-register twin computes.
func TestEvalIntDomain(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			EvalInt(op, 6, 3)
			return false
		}()
		if panicked == op.IsIntALU() {
			t.Errorf("%v: IsIntALU = %v but EvalInt panicked = %v", op, op.IsIntALU(), panicked)
		}
		twin, ok := op.RegForm()
		if ok != (op.IsIntALU() && op.HasImm()) {
			t.Errorf("%v: RegForm ok = %v", op, ok)
		}
		if !ok {
			continue
		}
		if !twin.IsIntALU() || twin.HasImm() {
			t.Errorf("%v: twin %v is not a register-register ALU op", op, twin)
		}
		for _, b := range []int64{0, 1, -1, 63, 64, math.MinInt64} {
			if EvalInt(op, -7, b) != EvalInt(twin, -7, b) {
				t.Errorf("%v and its twin %v disagree on (-7, %d)", op, twin, b)
			}
		}
	}
}

func TestCheckOperands(t *testing.T) {
	r1, r2, f1, f2 := Reg(1), Reg(2), F(1), F(2)
	good := []Inst{
		{Op: ADD, Rd: r1, Rs1: r2, Rs2: R0},
		{Op: ADDI, Rd: r1, Rs1: r2, Rs2: f1}, // Rs2 unused
		{Op: FADD, Rd: f1, Rs1: f2, Rs2: f1},
		{Op: FSLT, Rd: r1, Rs1: f1, Rs2: f2},
		{Op: FCVTIF, Rd: f1, Rs1: r1},
		{Op: FCVTFI, Rd: r1, Rs1: f1},
		{Op: FLD, Rd: f1, Rs1: r1},
		{Op: FST, Rs1: r1, Rs2: f2},
		{Op: BEQ, Rs1: r1, Rs2: R0},
		{Op: JR, Rs1: r1},
		{Op: LA, Rd: r1},
		{Op: HALT, Rd: f1}, // no operands at all
	}
	for _, in := range good {
		if err := in.CheckOperands(); err != nil {
			t.Errorf("%v: unexpected error %v", in, err)
		}
	}
	bad := []struct {
		in      Inst
		operand string
	}{
		{Inst{Op: ADD, Rd: r1, Rs1: f2, Rs2: r2}, "rs1"},
		{Inst{Op: ADD, Rd: f1, Rs1: r1, Rs2: r2}, "rd"},
		{Inst{Op: FADD, Rd: f1, Rs1: r2, Rs2: f2}, "rs1"},
		{Inst{Op: BEQ, Rs1: f1, Rs2: R0}, "rs1"},
		{Inst{Op: FLD, Rd: r1, Rs1: r2}, "rd"},
		{Inst{Op: FCVTIF, Rd: r1, Rs1: r2}, "rd"},
		{Inst{Op: FST, Rs1: r1, Rs2: r2}, "rs2"},
		{Inst{Op: JR, Rs1: Reg(NumRegs)}, "rs1"},
	}
	for _, c := range bad {
		var oe *OperandError
		if err := c.in.CheckOperands(); !errors.As(err, &oe) {
			t.Errorf("%v: got %v, want *OperandError", c.in, err)
		} else if oe.Operand != c.operand || oe.Inst != c.in {
			t.Errorf("%v: error names %s of %v, want %s", c.in, oe.Operand, oe.Inst, c.operand)
		}
	}
	if err := (Inst{Op: Opcode(250)}).CheckOperands(); err == nil {
		t.Error("invalid opcode passed CheckOperands")
	}
}
