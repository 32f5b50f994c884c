package cpu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// semOperands and semFloats are the extreme operands every computational
// opcode is checked on.
var semOperands = []int64{0, 1, -1, 63, 64, 65, math.MinInt64, math.MaxInt64}

var semFloats = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}

// semProgram builds a looped program that evaluates every integer ALU
// opcode, conditional branch and FP opcode on every pair of extreme
// operands, storing each result to its own data word. The data segment
// holds the FP operands first, then one zeroed word per result. want
// holds the reference results from internal/isa, in result order.
func semProgram() (src string, firstResult int, want []int64) {
	var data []int64
	fpAddr := make(map[uint64]int64) // FP operand bits -> data address
	fpWord := func(f float64) int64 {
		bits := math.Float64bits(f)
		if addr, ok := fpAddr[bits]; ok {
			return addr
		}
		fpAddr[bits] = prog.DataBase + 8*int64(len(data))
		data = append(data, int64(bits))
		return fpAddr[bits]
	}
	for _, f := range semFloats {
		fpWord(f)
	}
	firstResult = len(data)

	var body strings.Builder
	result := func(v int64) int64 {
		want = append(want, v)
		return prog.DataBase + 8*int64(firstResult+len(want)-1)
	}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		for _, a := range semOperands {
			for _, b := range semOperands {
				switch {
				case op.IsIntALU() && op.HasImm():
					fmt.Fprintf(&body, "  li r1, %d\n  %v r3, r1, %d\n  st r3, %d(r0)\n",
						a, op, b, result(isa.EvalInt(op, a, b)))
				case op.IsIntALU():
					fmt.Fprintf(&body, "  li r1, %d\n  li r2, %d\n  %v r3, r1, r2\n  st r3, %d(r0)\n",
						a, b, op, result(isa.EvalInt(op, a, b)))
				case op.IsCondBranch():
					var taken int64
					if isa.Taken(op, a, b) {
						taken = 1
					}
					label := fmt.Sprintf("b%d", len(want))
					fmt.Fprintf(&body, "  li r1, %d\n  li r2, %d\n  li r3, 1\n  %v r1, r2, %s\n  li r3, 0\n%s:\n  st r3, %d(r0)\n",
						a, b, op, label, label, result(taken))
				}
			}
		}
	}
	for _, op := range []isa.Opcode{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSLT} {
		for _, a := range semFloats {
			for _, b := range semFloats {
				if op == isa.FSLT {
					fmt.Fprintf(&body, "  fld f1, %d(r0)\n  fld f2, %d(r0)\n  fslt r3, f1, f2\n  st r3, %d(r0)\n",
						fpWord(a), fpWord(b), result(isa.FSlt(a, b)))
					continue
				}
				v := int64(math.Float64bits(isa.EvalFP(op, a, b)))
				fmt.Fprintf(&body, "  fld f1, %d(r0)\n  fld f2, %d(r0)\n  %v f3, f1, f2\n  fst f3, %d(r0)\n",
					fpWord(a), fpWord(b), op, result(v))
			}
		}
	}
	for _, a := range semOperands {
		v := int64(math.Float64bits(float64(a)))
		fmt.Fprintf(&body, "  li r1, %d\n  fcvtif f3, r1\n  fst f3, %d(r0)\n", a, result(v))
	}
	for _, f := range semFloats {
		fmt.Fprintf(&body, "  fld f1, %d(r0)\n  fcvtfi r3, f1\n  st r3, %d(r0)\n", fpWord(f), result(int64(f)))
	}

	var sb strings.Builder
	sb.WriteString(".data")
	for _, v := range data {
		fmt.Fprintf(&sb, " %d", v)
	}
	for range want {
		sb.WriteString(" 0")
	}
	// Four passes: a block promotes on its second dispatch (threshold 2),
	// so the last passes run in tier 1.
	fmt.Fprintf(&sb, "\n.func main\n.main\n  li r20, 0\n  li r21, 4\ntop:\n%s  addi r20, r20, 1\n  blt r20, r21, top\n  halt\n", body.String())
	return sb.String(), firstResult, want
}

// TestSemanticsDifferential runs every computational opcode on extreme
// operands through the oracle loop, tier 0 and eager tier 1, requires the
// three to agree bit for bit (timedTriple), and checks each engine's
// stored results against internal/isa's definitions.
func TestSemanticsDifferential(t *testing.T) {
	src, first, want := semProgram()
	img := mustAssemble(t, src)
	bc := timedTriple(t, img, 2)
	if bc.SB.ChainedInsts == 0 {
		t.Fatal("no instruction ran in tier 1")
	}

	oracle := DefaultConfig()
	oracle.DisableBlockCache = true
	tier0 := DefaultConfig()
	tier0.DisableSuperblocks = true
	tier1 := DefaultConfig()
	tier1.SuperblockThreshold = 2
	for _, eng := range []struct {
		name string
		cfg  Config
	}{{"oracle", oracle}, {"tier 0", tier0}, {"tier 1", tier1}} {
		_, m, err := RunTimed(eng.cfg, img, 0)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		bad := 0
		for i, w := range want {
			got, err := m.Mem.Load(prog.DataBase + 8*int64(first+i))
			if err != nil {
				t.Fatalf("%s: result %d: %v", eng.name, i, err)
			}
			if got != w {
				if bad++; bad <= 10 {
					t.Errorf("%s: result %d = %#x, want %#x", eng.name, i, got, w)
				}
			}
		}
		if bad > 10 {
			t.Errorf("%s: %d results differ in all", eng.name, bad)
		}
	}
}
