package isa

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R0, "r0"},
		{Reg(4), "r4"},
		{RSP, "sp"},
		{RRA, "ra"},
		{F(0), "f0"},
		{F(15), "f15"},
		{Reg(200), "reg?200"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(c.r), got, c.want)
		}
	}
}

func TestFRange(t *testing.T) {
	if got := F(3); got != Reg(NumIntRegs+3) {
		t.Errorf("F(3) = %d, want %d", got, NumIntRegs+3)
	}
	defer func() {
		if recover() == nil {
			t.Error("F(16) did not panic")
		}
	}()
	F(16)
}

func TestRegClassification(t *testing.T) {
	if F(0).IsFP() != true || Reg(5).IsFP() != false {
		t.Error("IsFP misclassifies registers")
	}
	if !Reg(NumRegs-1).Valid() || Reg(NumRegs).Valid() {
		t.Error("Valid boundary wrong")
	}
}

func TestOpcodeTablesComplete(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no table entry", uint8(op))
		}
		if opTable[op].latency < 1 {
			t.Errorf("opcode %s has latency %d < 1", op, opTable[op].latency)
		}
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v; want %v, true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpcodeByName("bogus"); ok {
		t.Error("OpcodeByName accepted bogus mnemonic")
	}
}

func TestOpcodeClassPredicates(t *testing.T) {
	condBranches := []Opcode{BEQ, BNE, BLT, BGE}
	for _, op := range condBranches {
		if !op.IsCondBranch() || !op.IsControl() {
			t.Errorf("%s should be a conditional branch and control", op)
		}
		if op.FU() != FUBranch {
			t.Errorf("%s FU = %v, want branch", op, op.FU())
		}
	}
	for _, op := range []Opcode{JMP, CALL, RET, HALT} {
		if op.IsCondBranch() {
			t.Errorf("%s should not be a conditional branch", op)
		}
		if !op.IsControl() {
			t.Errorf("%s should be control", op)
		}
	}
	for _, op := range []Opcode{ADD, LD, FADD, LA, LI} {
		if op.IsControl() {
			t.Errorf("%s should not be control", op)
		}
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in       Inst
		wantDef  Reg
		hasDef   bool
		wantUses []Reg
	}{
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, 1, true, []Reg{2, 3}},
		{Inst{Op: ADD, Rd: R0, Rs1: 2, Rs2: 3}, 0, false, []Reg{2, 3}},
		{Inst{Op: ADD, Rd: 1, Rs1: R0, Rs2: R0}, 1, true, nil},
		{Inst{Op: CALL, Target: 10}, RRA, true, nil},
		{Inst{Op: RET}, 0, false, []Reg{RRA}},
		{Inst{Op: ST, Rs1: 4, Rs2: 5}, 0, false, []Reg{4, 5}},
		{Inst{Op: LI, Rd: 7, Imm: 3}, 7, true, nil},
		{Inst{Op: JMP, Target: 3}, 0, false, nil},
	}
	for _, c := range cases {
		d, ok := c.in.Defs()
		if ok != c.hasDef || (ok && d != c.wantDef) {
			t.Errorf("%v Defs() = %v,%v; want %v,%v", c.in, d, ok, c.wantDef, c.hasDef)
		}
		uses := c.in.Uses(nil)
		if len(uses) != len(c.wantUses) {
			t.Errorf("%v Uses() = %v; want %v", c.in, uses, c.wantUses)
			continue
		}
		for i := range uses {
			if uses[i] != c.wantUses[i] {
				t.Errorf("%v Uses()[%d] = %v; want %v", c.in, i, uses[i], c.wantUses[i])
			}
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: LI, Rd: 9, Imm: 100}, "li r9, 100"},
		{Inst{Op: LD, Rd: 1, Rs1: RSP, Imm: 8}, "ld r1, 8(sp)"},
		{Inst{Op: ST, Rs2: 3, Rs1: RSP, Imm: 16}, "st r3, 16(sp)"},
		{Inst{Op: BEQ, Rs1: 1, Rs2: 2, Target: 42}, "beq r1, r2, @42"},
		{Inst{Op: JMP, Target: 7}, "jmp @7"},
		{Inst{Op: RET}, "ret"},
		{Inst{Op: LA, Rd: 5, Target: 9}, "la r5, @9"},
		{Inst{Op: FCVTIF, Rd: F(1), Rs1: 3}, "fcvtif f1, r3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// regStringFmt and instStringFmt are the fmt-based renderings Append
// replaced, kept as the reference Append must match byte for byte: the
// packed-program text (and through it package-set hashes and store keys)
// is built from Append.
func regStringFmt(r Reg) string {
	switch {
	case r == RSP:
		return "sp"
	case r == RRA:
		return "ra"
	case r < NumIntRegs:
		return fmt.Sprintf("r%d", uint8(r))
	case r < NumRegs:
		return fmt.Sprintf("f%d", uint8(r)-NumIntRegs)
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

func instStringFmt(in Inst) string {
	info := opTable[in.Op]
	r := regStringFmt
	switch {
	case in.Op == LD || in.Op == FLD:
		return fmt.Sprintf("%s %s, %d(%s)", info.name, r(in.Rd), in.Imm, r(in.Rs1))
	case in.Op == ST || in.Op == FST:
		return fmt.Sprintf("%s %s, %d(%s)", info.name, r(in.Rs2), in.Imm, r(in.Rs1))
	case in.Op == LI:
		return fmt.Sprintf("%s %s, %d", info.name, r(in.Rd), in.Imm)
	case in.Op == LA:
		return fmt.Sprintf("%s %s, @%d", info.name, r(in.Rd), in.Target)
	case info.hasTarget && info.rs1 != NoReg:
		return fmt.Sprintf("%s %s, %s, @%d", info.name, r(in.Rs1), r(in.Rs2), in.Target)
	case info.hasTarget:
		return fmt.Sprintf("%s @%d", info.name, in.Target)
	case info.rd != NoReg && info.rs1 != NoReg && info.rs2 != NoReg:
		return fmt.Sprintf("%s %s, %s, %s", info.name, r(in.Rd), r(in.Rs1), r(in.Rs2))
	case info.rd != NoReg && info.rs1 != NoReg && info.hasImm:
		return fmt.Sprintf("%s %s, %s, %d", info.name, r(in.Rd), r(in.Rs1), in.Imm)
	case info.rd != NoReg && info.rs1 != NoReg:
		return fmt.Sprintf("%s %s, %s", info.name, r(in.Rd), r(in.Rs1))
	default:
		return info.name
	}
}

func TestAppendMatchesFmt(t *testing.T) {
	for r := 0; r < 256; r++ {
		if got, want := Reg(r).String(), regStringFmt(Reg(r)); got != want {
			t.Errorf("Reg(%d): %q, fmt %q", r, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		in := randomInst(rng)
		if i%4 == 0 { // extremes and out-of-range operands
			in.Imm = [...]int64{0, -1, math.MinInt64, math.MaxInt64}[i/4%4]
			in.Target = -in.Target
			in.Rd, in.Rs1, in.Rs2 = Reg(rng.Intn(256)), Reg(rng.Intn(256)), Reg(rng.Intn(256))
		}
		if got, want := in.String(), instStringFmt(in); got != want {
			t.Fatalf("%+v: %q, fmt %q", in, got, want)
		}
		if got := string(in.Append([]byte("x"))); got != "x"+instStringFmt(in) {
			t.Fatalf("%+v: Append onto a prefix gave %q", in, got)
		}
	}
}

// randomInst builds a valid instruction for property tests.
func randomInst(r *rand.Rand) Inst {
	op := Opcode(r.Intn(NumOpcodes))
	in := Inst{Op: op}
	if op.HasRd() {
		in.Rd = Reg(r.Intn(NumRegs))
	}
	if op.HasRs1() {
		in.Rs1 = Reg(r.Intn(NumRegs))
	}
	if op.HasRs2() {
		in.Rs2 = Reg(r.Intn(NumRegs))
	}
	if op.HasImm() {
		in.Imm = r.Int63() - r.Int63()
	}
	if op.HasTarget() {
		in.Target = int64(r.Intn(1 << 20))
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		in := randomInst(r)
		var buf [EncodedSize]byte
		if err := in.Encode(buf[:]); err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		out, err := Decode(buf[:])
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	var buf [EncodedSize]byte
	if err := (Inst{Op: Opcode(250)}).Encode(buf[:]); err == nil {
		t.Error("invalid opcode encoded without error")
	}
	if err := (Inst{Op: ADD, Rd: Reg(99)}).Encode(buf[:]); err == nil {
		t.Error("invalid register encoded without error")
	}
	if err := (Inst{Op: JMP, Target: -1}).Encode(buf[:]); err == nil {
		t.Error("negative target encoded without error")
	}
	if err := (Inst{Op: ADD}).Encode(buf[:4]); err == nil {
		t.Error("short buffer encoded without error")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Error("short buffer decoded without error")
	}
	bad := make([]byte, EncodedSize)
	bad[0] = 250
	if _, err := Decode(bad); err == nil {
		t.Error("invalid opcode decoded without error")
	}
	bad[0] = byte(ADD)
	bad[1] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("invalid register decoded without error")
	}
}

func TestImageRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	code := make([]Inst, 300)
	for i := range code {
		code[i] = randomInst(r)
	}
	data, err := EncodeImage(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(code)*EncodedSize {
		t.Fatalf("image size = %d, want %d", len(data), len(code)*EncodedSize)
	}
	back, err := DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range code {
		if back[i] != code[i] {
			t.Fatalf("slot %d: got %+v, want %+v", i, back[i], code[i])
		}
	}
	if _, err := DecodeImage(data[:EncodedSize+1]); err == nil {
		t.Error("ragged image decoded without error")
	}
}

// Property: every encodable instruction survives a round trip, regardless of
// junk in unused fields being rejected or normalized.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(opRaw uint8, rd, rs1, rs2 uint8, imm int64, target uint32) bool {
		op := Opcode(opRaw % uint8(NumOpcodes))
		in := Inst{
			Op:     op,
			Rd:     Reg(rd % NumRegs),
			Rs1:    Reg(rs1 % NumRegs),
			Rs2:    Reg(rs2 % NumRegs),
			Imm:    imm,
			Target: int64(target),
		}
		var buf [EncodedSize]byte
		if err := in.Encode(buf[:]); err != nil {
			return false
		}
		out, err := Decode(buf[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFUClassString(t *testing.T) {
	for _, c := range []FUClass{FUNone, FUIALU, FUFP, FUMem, FUBranch} {
		if s := c.String(); s == "" || strings.HasPrefix(s, "fu?") {
			t.Errorf("FUClass(%d).String() = %q", uint8(c), s)
		}
	}
	if s := FUClass(9).String(); s != "fu?9" {
		t.Errorf("unknown FUClass string = %q", s)
	}
}
