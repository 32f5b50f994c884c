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

// RegClass is the register file an operand must name.
type RegClass uint8

// Operand register classes.
const (
	NoReg  RegClass = iota // the opcode does not use the operand
	IntReg                 // r0..r31
	FPReg                  // f0..f15
)

func (c RegClass) String() string {
	switch c {
	case IntReg:
		return "integer"
	case FPReg:
		return "floating-point"
	default:
		return "no"
	}
}

// holds reports whether r names a register of class c.
func (c RegClass) holds(r Reg) bool {
	switch c {
	case IntReg:
		return r < NumIntRegs
	case FPReg:
		return r.IsFP()
	}
	return true
}

// opInfo is the static description of one opcode.
type opInfo struct {
	name    string
	fu      FUClass
	latency int // cycles from issue to result availability (L1 hit for loads)
	// operand register classes; NoReg marks an unused operand
	rd, rs1, rs2      RegClass
	hasImm, hasTarget bool
	// regForm is a register-immediate ALU opcode's register-register
	// twin (ADDI -> ADD); NOP for every other opcode.
	regForm Opcode
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
			HasRd:        info.rd != NoReg,
			HasRs1:       info.rs1 != NoReg,
			HasRs2:       info.rs2 != NoReg,
			IsControl:    op.isControlSlow(),
			IsCondBranch: op.isCondBranchSlow(),
		}
	}
}

var opTable = [numOpcodes]opInfo{
	NOP: {name: "nop", fu: FUNone, latency: 1},

	ADD: {name: "add", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	SUB: {name: "sub", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	MUL: {name: "mul", fu: FUIALU, latency: 3, rd: IntReg, rs1: IntReg, rs2: IntReg},
	DIV: {name: "div", fu: FUIALU, latency: 8, rd: IntReg, rs1: IntReg, rs2: IntReg},
	REM: {name: "rem", fu: FUIALU, latency: 8, rd: IntReg, rs1: IntReg, rs2: IntReg},
	AND: {name: "and", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	OR:  {name: "or", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	XOR: {name: "xor", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	SHL: {name: "shl", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	SHR: {name: "shr", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	SLT: {name: "slt", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},
	SEQ: {name: "seq", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, rs2: IntReg},

	ADDI: {name: "addi", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: ADD},
	MULI: {name: "muli", fu: FUIALU, latency: 3, rd: IntReg, rs1: IntReg, hasImm: true, regForm: MUL},
	ANDI: {name: "andi", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: AND},
	ORI:  {name: "ori", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: OR},
	XORI: {name: "xori", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: XOR},
	SHLI: {name: "shli", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: SHL},
	SHRI: {name: "shri", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: SHR},
	SLTI: {name: "slti", fu: FUIALU, latency: 1, rd: IntReg, rs1: IntReg, hasImm: true, regForm: SLT},
	LI:   {name: "li", fu: FUIALU, latency: 1, rd: IntReg, hasImm: true},

	LD: {name: "ld", fu: FUMem, latency: 3, rd: IntReg, rs1: IntReg, hasImm: true},
	ST: {name: "st", fu: FUMem, latency: 1, rs1: IntReg, rs2: IntReg, hasImm: true},

	FADD:   {name: "fadd", fu: FUFP, latency: 3, rd: FPReg, rs1: FPReg, rs2: FPReg},
	FSUB:   {name: "fsub", fu: FUFP, latency: 3, rd: FPReg, rs1: FPReg, rs2: FPReg},
	FMUL:   {name: "fmul", fu: FUFP, latency: 3, rd: FPReg, rs1: FPReg, rs2: FPReg},
	FDIV:   {name: "fdiv", fu: FUFP, latency: 8, rd: FPReg, rs1: FPReg, rs2: FPReg},
	FSLT:   {name: "fslt", fu: FUFP, latency: 3, rd: IntReg, rs1: FPReg, rs2: FPReg},
	FCVTIF: {name: "fcvtif", fu: FUFP, latency: 3, rd: FPReg, rs1: IntReg},
	FCVTFI: {name: "fcvtfi", fu: FUFP, latency: 3, rd: IntReg, rs1: FPReg},
	FLD:    {name: "fld", fu: FUMem, latency: 3, rd: FPReg, rs1: IntReg, hasImm: true},
	FST:    {name: "fst", fu: FUMem, latency: 1, rs1: IntReg, rs2: FPReg, hasImm: true},

	BEQ:  {name: "beq", fu: FUBranch, latency: 1, rs1: IntReg, rs2: IntReg, hasTarget: true},
	BNE:  {name: "bne", fu: FUBranch, latency: 1, rs1: IntReg, rs2: IntReg, hasTarget: true},
	BLT:  {name: "blt", fu: FUBranch, latency: 1, rs1: IntReg, rs2: IntReg, hasTarget: true},
	BGE:  {name: "bge", fu: FUBranch, latency: 1, rs1: IntReg, rs2: IntReg, hasTarget: true},
	JMP:  {name: "jmp", fu: FUBranch, latency: 1, hasTarget: true},
	CALL: {name: "call", fu: FUBranch, latency: 1, hasTarget: true},
	RET:  {name: "ret", fu: FUBranch, latency: 1},
	JR:   {name: "jr", fu: FUBranch, latency: 1, rs1: IntReg},
	LA:   {name: "la", fu: FUIALU, latency: 1, rd: IntReg, hasTarget: true},
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
func (op Opcode) HasRd() bool { return op.Valid() && opTable[op].rd != NoReg }

// HasRs1 reports whether op reads Rs1.
func (op Opcode) HasRs1() bool { return op.Valid() && opTable[op].rs1 != NoReg }

// HasRs2 reports whether op reads Rs2.
func (op Opcode) HasRs2() bool { return op.Valid() && opTable[op].rs2 != NoReg }

// HasImm reports whether op carries an immediate operand.
func (op Opcode) HasImm() bool { return op.Valid() && opTable[op].hasImm }

// HasTarget reports whether op carries a control-flow target.
func (op Opcode) HasTarget() bool { return op.Valid() && opTable[op].hasTarget }

// RegForm returns the register-register twin of a register-immediate ALU
// opcode (ADDI -> ADD), whose result the immediate form computes with the
// immediate as its second operand. ok is false for every other opcode.
func (op Opcode) RegForm() (twin Opcode, ok bool) {
	if !op.Valid() || opTable[op].regForm == NOP {
		return op, false
	}
	return opTable[op].regForm, true
}

// IsIntALU reports whether EvalInt defines op: the integer ALU opcodes in
// register-register and register-immediate form.
func (op Opcode) IsIntALU() bool { return Meta[op].FU == FUIALU && Meta[op].HasRs1 }

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

// OperandError reports an instruction operand that names a register
// outside the class its opcode requires, such as an FP register as the
// source of an integer ADD.
type OperandError struct {
	Inst    Inst
	Operand string // "rd", "rs1" or "rs2"
	Want    RegClass
}

func (e *OperandError) Error() string {
	r := e.Inst.Rd
	switch e.Operand {
	case "rs1":
		r = e.Inst.Rs1
	case "rs2":
		r = e.Inst.Rs2
	}
	return fmt.Sprintf("isa: %v: %s %v is not in the %v register file", e.Inst, e.Operand, r, e.Want)
}

// CheckOperands returns an *OperandError when an operand in uses names a
// register of the wrong class (or no register at all). Operands the opcode
// does not use are not checked. Every image satisfies this check, so the
// interpreters may index a register file by an operand without a class
// test.
func (in Inst) CheckOperands() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	info := &opTable[in.Op]
	switch {
	case !info.rd.holds(in.Rd):
		return &OperandError{Inst: in, Operand: "rd", Want: info.rd}
	case !info.rs1.holds(in.Rs1):
		return &OperandError{Inst: in, Operand: "rs1", Want: info.rs1}
	case !info.rs2.holds(in.Rs2):
		return &OperandError{Inst: in, Operand: "rs2", Want: info.rs2}
	}
	return nil
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
	case info.hasTarget && info.rs1 != NoReg: // conditional branches
		dst = in.Rs1.Append(append(dst, ' '))
		dst = in.Rs2.Append(append(dst, ", "...))
		return strconv.AppendInt(append(dst, ", @"...), in.Target, 10)
	case info.hasTarget:
		return strconv.AppendInt(append(dst, " @"...), in.Target, 10)
	case info.rd != NoReg && info.rs1 != NoReg && info.rs2 != NoReg:
		dst = in.Rd.Append(append(dst, ' '))
		dst = in.Rs1.Append(append(dst, ", "...))
		return in.Rs2.Append(append(dst, ", "...))
	case info.rd != NoReg && info.rs1 != NoReg && info.hasImm:
		dst = in.Rd.Append(append(dst, ' '))
		dst = in.Rs1.Append(append(dst, ", "...))
		return strconv.AppendInt(append(dst, ", "...), in.Imm, 10)
	case info.rd != NoReg && info.rs1 != NoReg:
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
