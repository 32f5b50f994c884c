package isa

// The semantics of VPIR's computational opcodes. Every interpreter (the
// functional machine, both timed tiers) and both evaluators of the
// equivalence prover call these functions, so the simulator that times a
// package and the prover that certifies it give each instruction one
// meaning. The single-op helpers are small enough to inline into the
// interpreters' per-opcode switches.

// Div is DIV: signed division truncating toward zero; division by zero
// yields 0.
func Div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Rem is REM: the remainder of Div, with the dividend's sign; remainder
// by zero yields 0.
func Rem(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a % b
}

// Shl is SHL/SHLI: the shift amount is masked to its low 6 bits.
func Shl(a, b int64) int64 { return a << uint(b&63) }

// Shr is SHR/SHRI: a logical right shift, the amount masked to 6 bits.
func Shr(a, b int64) int64 { return int64(uint64(a) >> uint(b&63)) }

// Slt is SLT/SLTI: 1 when a < b as signed integers, else 0.
func Slt(a, b int64) int64 {
	if a < b {
		return 1
	}
	return 0
}

// Seq is SEQ: 1 when a == b, else 0.
func Seq(a, b int64) int64 {
	if a == b {
		return 1
	}
	return 0
}

// EvalInt computes an integer ALU opcode (IsIntALU) over its source
// values. For a register-immediate opcode b is the immediate. It panics
// on any other opcode.
func EvalInt(op Opcode, a, b int64) int64 {
	switch op {
	case ADD, ADDI:
		return a + b
	case SUB:
		return a - b
	case MUL, MULI:
		return a * b
	case DIV:
		return Div(a, b)
	case REM:
		return Rem(a, b)
	case AND, ANDI:
		return a & b
	case OR, ORI:
		return a | b
	case XOR, XORI:
		return a ^ b
	case SHL, SHLI:
		return Shl(a, b)
	case SHR, SHRI:
		return Shr(a, b)
	case SLT, SLTI:
		return Slt(a, b)
	case SEQ:
		return Seq(a, b)
	}
	panic("isa: EvalInt on non-integer opcode " + op.String())
}

// FDiv is FDIV: IEEE division, except that a divisor equal to zero
// (either sign) yields +0.
func FDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// FSlt is FSLT: 1 when a < b, else 0 (0 when either is NaN).
func FSlt(a, b float64) int64 {
	if a < b {
		return 1
	}
	return 0
}

// EvalFP computes FADD, FSUB, FMUL or FDIV over its source values. It
// panics on any other opcode.
func EvalFP(op Opcode, a, b float64) float64 {
	switch op {
	case FADD:
		return a + b
	case FSUB:
		return a - b
	case FMUL:
		return a * b
	case FDIV:
		return FDiv(a, b)
	}
	panic("isa: EvalFP on opcode " + op.String())
}

// Taken reports whether conditional branch op is taken on source values a
// and b: BEQ a == b, BNE a != b, BLT a < b and BGE a >= b, signed. It is
// false for any other opcode.
func Taken(op Opcode, a, b int64) bool {
	switch op {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return a < b
	case BGE:
		return a >= b
	}
	return false
}
