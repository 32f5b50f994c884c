// Package isa defines VPIR, the small load/store instruction set used by the
// Vacuum Packing reproduction. VPIR stands in for the EPIC/IMPACT binaries
// used in the paper: it is simple enough to assemble, simulate and rewrite,
// yet rich enough that branch profiles, partial inlining and list scheduling
// all behave the way the paper's algorithms expect.
//
// The machine is word oriented: every register holds a 64-bit value, memory
// is byte addressed but accessed in 8-byte words, and every instruction
// occupies one 8-byte slot in the linearized code image. Program counters
// count instruction slots, not bytes.
package isa

import (
	"fmt"
	"strconv"
)

// Reg names an architectural register. Registers 0..31 are the integer file
// and 32..47 are the floating-point file (F0..F15). R0 reads as zero and
// ignores writes, matching common RISC practice; RSP and RRA have the usual
// stack-pointer and return-address conventions.
type Reg uint8

// Integer register conventions.
const (
	R0  Reg = 0  // hardwired zero
	RSP Reg = 30 // stack pointer
	RRA Reg = 31 // return address (written by CALL, read by RET)
)

// NumIntRegs and NumFPRegs size the two register files. Reg values in
// [NumIntRegs, NumIntRegs+NumFPRegs) name floating-point registers.
const (
	NumIntRegs = 32
	NumFPRegs  = 16
	NumRegs    = NumIntRegs + NumFPRegs
)

// F returns the Reg naming floating-point register i.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: FP register F%d out of range", i))
	}
	return Reg(NumIntRegs + i)
}

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < NumRegs }

// Valid reports whether r names an architectural register at all.
func (r Reg) Valid() bool { return r < NumRegs }

// String renders the register in assembly syntax (r4, sp, ra, f2, ...).
func (r Reg) String() string { return string(r.Append(nil)) }

// Append appends the register's assembly name (String) to dst.
func (r Reg) Append(dst []byte) []byte {
	switch {
	case r == RSP:
		return append(dst, "sp"...)
	case r == RRA:
		return append(dst, "ra"...)
	case r < NumIntRegs:
		return strconv.AppendUint(append(dst, 'r'), uint64(r), 10)
	case r < NumRegs:
		return strconv.AppendUint(append(dst, 'f'), uint64(r-NumIntRegs), 10)
	default:
		return strconv.AppendUint(append(dst, "reg?"...), uint64(r), 10)
	}
}

// Opcode enumerates every VPIR operation.
type Opcode uint8

// Opcodes. The comment gives the assembly shape and semantics.
const (
	NOP Opcode = iota // nop

	// Integer ALU, register-register.
	ADD // add rd, rs1, rs2    rd = rs1 + rs2
	SUB // sub rd, rs1, rs2
	MUL // mul rd, rs1, rs2
	DIV // div rd, rs1, rs2    (div by zero yields 0)
	REM // rem rd, rs1, rs2    (rem by zero yields 0)
	AND // and rd, rs1, rs2
	OR  // or  rd, rs1, rs2
	XOR // xor rd, rs1, rs2
	SHL // shl rd, rs1, rs2    rd = rs1 << (rs2 & 63)
	SHR // shr rd, rs1, rs2    logical right shift
	SLT // slt rd, rs1, rs2    rd = rs1 < rs2 ? 1 : 0 (signed)
	SEQ // seq rd, rs1, rs2    rd = rs1 == rs2 ? 1 : 0

	// Integer ALU, register-immediate.
	ADDI // addi rd, rs1, imm
	MULI // muli rd, rs1, imm
	ANDI // andi rd, rs1, imm
	ORI  // ori  rd, rs1, imm
	XORI // xori rd, rs1, imm
	SHLI // shli rd, rs1, imm
	SHRI // shri rd, rs1, imm
	SLTI // slti rd, rs1, imm
	LI   // li   rd, imm        rd = imm (64-bit)

	// Memory. Addresses are rs1 + imm, must be 8-byte aligned.
	LD // ld rd, imm(rs1)
	ST // st rs2, imm(rs1)     mem[rs1+imm] = rs2

	// Floating point (operands in the FP file; FCVTIF/FCVTFI move across).
	FADD   // fadd fd, fs1, fs2
	FSUB   // fsub fd, fs1, fs2
	FMUL   // fmul fd, fs1, fs2
	FDIV   // fdiv fd, fs1, fs2   (div by zero yields 0)
	FSLT   // fslt rd, fs1, fs2   integer rd = fs1 < fs2 ? 1 : 0
	FCVTIF // fcvtif fd, rs1      int -> float
	FCVTFI // fcvtfi rd, fs1      float -> int (truncating)
	FLD    // fld fd, imm(rs1)
	FST    // fst fs2, imm(rs1)

	// Control. Targets are absolute instruction-slot addresses after
	// linearization; before that, the program layer keeps them symbolic.
	BEQ  // beq rs1, rs2, target   branch if rs1 == rs2
	BNE  // bne rs1, rs2, target
	BLT  // blt rs1, rs2, target   signed
	BGE  // bge rs1, rs2, target   signed
	JMP  // jmp target
	CALL // call target            ra = pc+1; pc = target
	RET  // ret                    pc = ra
	JR   // jr rs1                 pc = rs1 (indirect jump)
	LA   // la rd, target          rd = target address (materialized label)
	HALT // halt

	numOpcodes
)

// NumOpcodes is the count of defined opcodes (for table sizing and fuzzing).
const NumOpcodes = int(numOpcodes)

// FUClass identifies which functional-unit pool an instruction issues to,
// mirroring the five unit types of the paper's EPIC machine model.
type FUClass uint8

// Functional unit classes (Table 2 of the paper).
const (
	FUNone   FUClass = iota // NOP, HALT: consume an issue slot only
	FUIALU                  // integer ALU
	FUFP                    // floating point
	FUMem                   // memory
	FUBranch                // control
)

func (c FUClass) String() string {
	switch c {
	case FUNone:
		return "none"
	case FUIALU:
		return "ialu"
	case FUFP:
		return "fp"
	case FUMem:
		return "mem"
	case FUBranch:
		return "branch"
	default:
		return fmt.Sprintf("fu?%d", uint8(c))
	}
}

// opInfo is the static description of one opcode.
type opInfo struct {
	name    string
	fu      FUClass
	latency int // cycles from issue to result availability (L1 hit for loads)
	// operand shape flags
	hasRd, hasRs1, hasRs2, hasImm, hasTarget bool
}

// OpMeta is the flattened per-opcode metadata consulted on the simulator's
// hottest paths (Machine.Step, Timing.Observe). Keeping everything in one
// cache-line-friendly struct turns a handful of per-instruction method
// calls into a single table load.
type OpMeta struct {
	FU           FUClass
	Latency      uint8
	HasRd        bool
	HasRs1       bool
	HasRs2       bool
	IsControl    bool
	IsCondBranch bool
}

// Meta is the flat opcode-indexed metadata table. It is sized 256 so that
// indexing with any uint8-valued Opcode needs no bounds check; undefined
// opcodes hold the zero OpMeta (FUNone, zero latency, no flags).
var Meta [256]OpMeta

func init() {
	for op := Opcode(0); op < numOpcodes; op++ {
		info := opTable[op]
		Meta[op] = OpMeta{
			FU:           info.fu,
			Latency:      uint8(info.latency),
			HasRd:        info.hasRd,
			HasRs1:       info.hasRs1,
			HasRs2:       info.hasRs2,
			IsControl:    op.isControlSlow(),
			IsCondBranch: op.isCondBranchSlow(),
		}
	}
}

var opTable = [numOpcodes]opInfo{
	NOP: {name: "nop", fu: FUNone, latency: 1},

	ADD: {name: "add", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	SUB: {name: "sub", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	MUL: {name: "mul", fu: FUIALU, latency: 3, hasRd: true, hasRs1: true, hasRs2: true},
	DIV: {name: "div", fu: FUIALU, latency: 8, hasRd: true, hasRs1: true, hasRs2: true},
	REM: {name: "rem", fu: FUIALU, latency: 8, hasRd: true, hasRs1: true, hasRs2: true},
	AND: {name: "and", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	OR:  {name: "or", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	XOR: {name: "xor", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	SHL: {name: "shl", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	SHR: {name: "shr", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	SLT: {name: "slt", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},
	SEQ: {name: "seq", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasRs2: true},

	ADDI: {name: "addi", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	MULI: {name: "muli", fu: FUIALU, latency: 3, hasRd: true, hasRs1: true, hasImm: true},
	ANDI: {name: "andi", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	ORI:  {name: "ori", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	XORI: {name: "xori", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	SHLI: {name: "shli", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	SHRI: {name: "shri", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	SLTI: {name: "slti", fu: FUIALU, latency: 1, hasRd: true, hasRs1: true, hasImm: true},
	LI:   {name: "li", fu: FUIALU, latency: 1, hasRd: true, hasImm: true},

	LD: {name: "ld", fu: FUMem, latency: 3, hasRd: true, hasRs1: true, hasImm: true},
	ST: {name: "st", fu: FUMem, latency: 1, hasRs1: true, hasRs2: true, hasImm: true},

	FADD:   {name: "fadd", fu: FUFP, latency: 3, hasRd: true, hasRs1: true, hasRs2: true},
	FSUB:   {name: "fsub", fu: FUFP, latency: 3, hasRd: true, hasRs1: true, hasRs2: true},
	FMUL:   {name: "fmul", fu: FUFP, latency: 3, hasRd: true, hasRs1: true, hasRs2: true},
	FDIV:   {name: "fdiv", fu: FUFP, latency: 8, hasRd: true, hasRs1: true, hasRs2: true},
	FSLT:   {name: "fslt", fu: FUFP, latency: 3, hasRd: true, hasRs1: true, hasRs2: true},
	FCVTIF: {name: "fcvtif", fu: FUFP, latency: 3, hasRd: true, hasRs1: true},
	FCVTFI: {name: "fcvtfi", fu: FUFP, latency: 3, hasRd: true, hasRs1: true},
	FLD:    {name: "fld", fu: FUMem, latency: 3, hasRd: true, hasRs1: true, hasImm: true},
	FST:    {name: "fst", fu: FUMem, latency: 1, hasRs1: true, hasRs2: true, hasImm: true},

	BEQ:  {name: "beq", fu: FUBranch, latency: 1, hasRs1: true, hasRs2: true, hasTarget: true},
	BNE:  {name: "bne", fu: FUBranch, latency: 1, hasRs1: true, hasRs2: true, hasTarget: true},
	BLT:  {name: "blt", fu: FUBranch, latency: 1, hasRs1: true, hasRs2: true, hasTarget: true},
	BGE:  {name: "bge", fu: FUBranch, latency: 1, hasRs1: true, hasRs2: true, hasTarget: true},
	JMP:  {name: "jmp", fu: FUBranch, latency: 1, hasTarget: true},
	CALL: {name: "call", fu: FUBranch, latency: 1, hasTarget: true},
	RET:  {name: "ret", fu: FUBranch, latency: 1},
	JR:   {name: "jr", fu: FUBranch, latency: 1, hasRs1: true},
	LA:   {name: "la", fu: FUIALU, latency: 1, hasRd: true, hasTarget: true},
	HALT: {name: "halt", fu: FUNone, latency: 1},
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// String returns the assembly mnemonic.
func (op Opcode) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op?%d", uint8(op))
	}
	return opTable[op].name
}

// FU returns the functional-unit class op issues to.
func (op Opcode) FU() FUClass {
	if !op.Valid() {
		return FUNone
	}
	return opTable[op].fu
}

// Latency returns the issue-to-result latency in cycles. Loads report their
// L1-hit latency; the timing model adds miss penalties.
func (op Opcode) Latency() int {
	if !op.Valid() {
		return 1
	}
	return opTable[op].latency
}

// HasRd reports whether op writes a destination register.
func (op Opcode) HasRd() bool { return op.Valid() && opTable[op].hasRd }

// HasRs1 reports whether op reads Rs1.
func (op Opcode) HasRs1() bool { return op.Valid() && opTable[op].hasRs1 }

// HasRs2 reports whether op reads Rs2.
func (op Opcode) HasRs2() bool { return op.Valid() && opTable[op].hasRs2 }

// HasImm reports whether op carries an immediate operand.
func (op Opcode) HasImm() bool { return op.Valid() && opTable[op].hasImm }

// HasTarget reports whether op carries a control-flow target.
func (op Opcode) HasTarget() bool { return op.Valid() && opTable[op].hasTarget }

// IsCondBranch reports whether op is a conditional branch — the instruction
// class profiled by the Branch Behavior Buffer.
func (op Opcode) IsCondBranch() bool { return Meta[op].IsCondBranch }

func (op Opcode) isCondBranchSlow() bool {
	switch op {
	case BEQ, BNE, BLT, BGE:
		return true
	}
	return false
}

// IsControl reports whether op can redirect the program counter.
func (op Opcode) IsControl() bool { return Meta[op].IsControl }

func (op Opcode) isControlSlow() bool {
	switch op {
	case BEQ, BNE, BLT, BGE, JMP, CALL, RET, JR, HALT:
		return true
	}
	return false
}

// OpcodeByName resolves an assembly mnemonic; ok is false for unknown names.
func OpcodeByName(name string) (op Opcode, ok bool) {
	o, ok := opsByName[name]
	return o, ok
}

var opsByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := Opcode(0); op < numOpcodes; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// Inst is one decoded VPIR instruction. Target is an absolute
// instruction-slot address; it is only meaningful after linearization (the
// program layer keeps symbolic block/function references until then).
type Inst struct {
	Op     Opcode
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	Target int64
}

// Defs returns the register op writes, and ok=false if it writes none.
// CALL's implicit write of RRA is reported here so dependence analysis and
// the scoreboard see it.
func (in Inst) Defs() (Reg, bool) {
	if in.Op == CALL {
		return RRA, true
	}
	if in.Op.HasRd() && in.Rd != R0 {
		return in.Rd, true
	}
	return 0, false
}

// Uses appends the registers in reads to dst and returns it. RET's implicit
// read of RRA is included.
func (in Inst) Uses(dst []Reg) []Reg {
	if in.Op.HasRs1() && in.Rs1 != R0 {
		dst = append(dst, in.Rs1)
	}
	if in.Op.HasRs2() && in.Rs2 != R0 {
		dst = append(dst, in.Rs2)
	}
	if in.Op == RET {
		dst = append(dst, RRA)
	}
	return dst
}

// String renders the instruction in assembly syntax with numeric targets.
func (in Inst) String() string { return string(in.Append(nil)) }

// Append appends the instruction's assembly form (String) to dst.
func (in Inst) Append(dst []byte) []byte {
	info := opTable[in.Op]
	dst = append(dst, info.name...)
	switch {
	case in.Op == LD || in.Op == FLD:
		return appendMem(dst, in.Rd, in.Imm, in.Rs1)
	case in.Op == ST || in.Op == FST:
		return appendMem(dst, in.Rs2, in.Imm, in.Rs1)
	case in.Op == LI:
		dst = in.Rd.Append(append(dst, ' '))
		return strconv.AppendInt(append(dst, ", "...), in.Imm, 10)
	case in.Op == LA:
		dst = in.Rd.Append(append(dst, ' '))
		return strconv.AppendInt(append(dst, ", @"...), in.Target, 10)
	case info.hasTarget && info.hasRs1: // conditional branches
		dst = in.Rs1.Append(append(dst, ' '))
		dst = in.Rs2.Append(append(dst, ", "...))
		return strconv.AppendInt(append(dst, ", @"...), in.Target, 10)
	case info.hasTarget:
		return strconv.AppendInt(append(dst, " @"...), in.Target, 10)
	case info.hasRd && info.hasRs1 && info.hasRs2:
		dst = in.Rd.Append(append(dst, ' '))
		dst = in.Rs1.Append(append(dst, ", "...))
		return in.Rs2.Append(append(dst, ", "...))
	case info.hasRd && info.hasRs1 && info.hasImm:
		dst = in.Rd.Append(append(dst, ' '))
		dst = in.Rs1.Append(append(dst, ", "...))
		return strconv.AppendInt(append(dst, ", "...), in.Imm, 10)
	case info.hasRd && info.hasRs1:
		dst = in.Rd.Append(append(dst, ' '))
		return in.Rs1.Append(append(dst, ", "...))
	default:
		return dst
	}
}

// appendMem appends a memory operand form: " reg, imm(base)".
func appendMem(dst []byte, r Reg, imm int64, base Reg) []byte {
	dst = r.Append(append(dst, ' '))
	dst = strconv.AppendInt(append(dst, ", "...), imm, 10)
	dst = base.Append(append(dst, '('))
	return append(dst, ')')
}
