package equiv

import (
	"math"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Term canonicalization tests: the prover's soundness rests on interned
// terms being pointer-equal iff semantically identified by the
// normalization rules, and on constant folding matching isa's semantics
// exactly.

func TestTermInterning(t *testing.T) {
	it := newInterner()
	a, b := it.Init(4), it.Init(5)
	if it.Op2(isa.ADD, a, b) != it.Op2(isa.ADD, a, b) {
		t.Error("identical ops not interned to one term")
	}
	if it.Const(7) != it.Const(7) {
		t.Error("identical consts not interned")
	}
	if it.Const(7) == it.Const(8) {
		t.Error("distinct consts interned together")
	}
}

func TestTermCommutativeCanon(t *testing.T) {
	it := newInterner()
	a, b := it.Init(4), it.Init(5)
	for _, op := range []isa.Opcode{isa.ADD, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SEQ} {
		if it.Op2(op, a, b) != it.Op2(op, b, a) {
			t.Errorf("%v not canonicalized commutatively", op)
		}
	}
	// SUB is not commutative; the orders must stay distinct.
	if it.Op2(isa.SUB, a, b) == it.Op2(isa.SUB, b, a) {
		t.Error("SUB wrongly treated as commutative")
	}
}

func TestTermIdentities(t *testing.T) {
	it := newInterner()
	a := it.Init(4)
	zero, one := it.Const(0), it.Const(1)
	cases := []struct {
		name string
		got  *Term
		want *Term
	}{
		{"x+0", it.Op2(isa.ADD, a, zero), a},
		{"x-0", it.Op2(isa.SUB, a, zero), a},
		{"x-x", it.Op2(isa.SUB, a, a), zero},
		{"x|0", it.Op2(isa.OR, a, zero), a},
		{"x^0", it.Op2(isa.XOR, a, zero), a},
		{"x^x", it.Op2(isa.XOR, a, a), zero},
		{"x*1", it.Op2(isa.MUL, a, one), a},
		{"x*0", it.Op2(isa.MUL, a, zero), zero},
		{"x&0", it.Op2(isa.AND, a, zero), zero},
		{"x&x", it.Op2(isa.AND, a, a), a},
		{"x|x", it.Op2(isa.OR, a, a), a},
		{"x/1", it.Op2(isa.DIV, a, one), a},
		{"x%1", it.Op2(isa.REM, a, one), zero},
		{"x<<0", it.Op2(isa.SHL, a, zero), a},
		{"x>>0", it.Op2(isa.SHR, a, zero), a},
		{"x<x", it.Op2(isa.SLT, a, a), zero},
		{"x==x", it.Op2(isa.SEQ, a, a), one},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
}

// semOperands are the extreme operand values the prover's evaluators are
// checked on against internal/isa's definitions.
var semOperands = []int64{0, 1, -1, 63, 64, 65, math.MinInt64, math.MaxInt64}

var semFloats = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}

// TestFoldIntMachineSemantics checks every evaluator in the prover
// against isa's definitions over every integer ALU opcode, conditional
// branch and FP opcode × extreme operands: the interner's constant
// folding (register-immediate forms lowered as stepIns lowers them), the
// fuzz stepper cstep, the witness evaluator and predicate folding.
func TestFoldIntMachineSemantics(t *testing.T) {
	pv := &prover{}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		for _, a := range semOperands {
			for _, b := range semOperands {
				switch {
				case op.IsIntALU():
					want := isa.EvalInt(op, a, b)
					it := newInterner()
					fop := op
					if twin, ok := op.RegForm(); ok {
						fop = twin
					}
					if got := it.Op2(fop, it.Const(a), it.Const(b)); got.kind != kConst || got.k != want {
						t.Errorf("fold %v(%d, %d) = %s, want %d", op, a, b, got, want)
					}
					st := &cstate{}
					st.regs[1], st.regs[2] = a, b
					pv.cstep(st, prog.Ins{Inst: isa.Inst{Op: op, Rd: 3, Rs1: 1, Rs2: 2, Imm: b}})
					if st.regs[3] != want {
						t.Errorf("cstep %v(%d, %d) = %d, want %d", op, a, b, st.regs[3], want)
					}
					if !op.HasImm() {
						ev := newTermEval(1)
						ev.init[1], ev.init[2] = a, b
						if got := ev.eval(it.mk(kOp, op, it.Init(1), it.Init(2), nil, 0, nil)); got != want {
							t.Errorf("witness eval %v(%d, %d) = %d, want %d", op, a, b, got, want)
						}
					}
				case op.IsCondBranch():
					it := newInterner()
					st := &symState{}
					st.regs[1], st.regs[2] = it.Const(a), it.Const(b)
					pred, takenIfTrue := canonBranch(it, st, view{cmpOp: op, rs1: 1, rs2: 2})
					if got := (pred == it.one) == takenIfTrue; got != isa.Taken(op, a, b) {
						t.Errorf("pred fold %v(%d, %d) taken = %v, want %v", op, a, b, got, !got)
					}
					ev := newTermEval(1)
					ev.init[1], ev.init[2] = a, b
					sym := &symState{}
					sym.regs[1], sym.regs[2] = it.Init(1), it.Init(2)
					pred, takenIfTrue = canonBranch(it, sym, view{cmpOp: op, rs1: 1, rs2: 2})
					if got := (ev.eval(pred) != 0) == takenIfTrue; got != isa.Taken(op, a, b) {
						t.Errorf("witness pred %v(%d, %d) taken = %v, want %v", op, a, b, got, !got)
					}
				}
			}
		}
	}
	for _, op := range []isa.Opcode{isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV, isa.FSLT} {
		for _, a := range semFloats {
			for _, b := range semFloats {
				var want int64
				if op == isa.FSLT {
					want = isa.FSlt(a, b)
				} else {
					want = int64(math.Float64bits(isa.EvalFP(op, a, b)))
				}
				st := &cstate{}
				st.regs[isa.F(1)] = int64(math.Float64bits(a))
				st.regs[isa.F(2)] = int64(math.Float64bits(b))
				rd := isa.F(3)
				if op == isa.FSLT {
					rd = 3
				}
				pv.cstep(st, prog.Ins{Inst: isa.Inst{Op: op, Rd: rd, Rs1: isa.F(1), Rs2: isa.F(2)}})
				if got := st.regs[rd]; got != want {
					t.Errorf("cstep %v(%g, %g) = %#x, want %#x", op, a, b, got, want)
				}
			}
		}
	}
}

func TestPredFolding(t *testing.T) {
	it := newInterner()
	a, b := it.Init(4), it.Init(5)
	if p := it.Pred(isa.BEQ, a, a); p != it.one {
		t.Errorf("x==x pred should fold true, got %s", p)
	}
	if p := it.Pred(isa.BEQ, it.Const(1), it.Const(2)); p != it.zero {
		t.Errorf("1==2 pred should fold false, got %s", p)
	}
	if p := it.Pred(isa.BLT, it.Const(1), it.Const(2)); p != it.one {
		t.Errorf("1<2 pred should fold true, got %s", p)
	}
	// BEQ operands are order-canonicalized so both orientations share a
	// constraint slot.
	if it.Pred(isa.BEQ, a, b) != it.Pred(isa.BEQ, b, a) {
		t.Error("BEQ pred not canonicalized over operand order")
	}
}

func TestStoreChainCanonicalization(t *testing.T) {
	it := newInterner()
	base := it.Init(10)
	a0 := it.Op2(isa.ADD, base, it.Const(0))
	a8 := it.Op2(isa.ADD, base, it.Const(8))
	v1, v2 := it.Init(4), it.Init(5)
	mem := it.MemInit()

	// Same-address overwrite collapses to the latest store.
	m1 := it.Store(mem, a0, v1)
	m2 := it.Store(m1, a0, v2)
	if m2 != it.Store(mem, a0, v2) {
		t.Error("same-address overwrite not collapsed")
	}

	// Provably-disjoint stores commute into one canonical order.
	ab := it.Store(it.Store(mem, a0, v1), a8, v2)
	ba := it.Store(it.Store(mem, a8, v2), a0, v1)
	if ab != ba {
		t.Error("disjoint stores not order-canonicalized")
	}

	// May-alias stores (distinct symbolic bases) must NOT commute.
	other := it.Init(11)
	xy := it.Store(it.Store(mem, base, v1), other, v2)
	yx := it.Store(it.Store(mem, other, v2), base, v1)
	if xy == yx {
		t.Error("may-alias stores wrongly commuted")
	}
}

func TestLoadForwarding(t *testing.T) {
	it := newInterner()
	base := it.Init(10)
	a0 := it.Op2(isa.ADD, base, it.Const(0))
	a8 := it.Op2(isa.ADD, base, it.Const(8))
	v := it.Init(4)
	mem := it.MemInit()

	if got := it.Load(it.Store(mem, a0, v), a0); got != v {
		t.Errorf("load of just-stored addr should forward the value, got %s", got)
	}
	// A provably-disjoint intervening store is skipped.
	m := it.Store(it.Store(mem, a0, v), a8, it.Init(5))
	if got := it.Load(m, a0); got != v {
		t.Errorf("load should skip disjoint store, got %s", got)
	}
	// A may-alias intervening store blocks forwarding.
	blocked := it.Store(it.Store(mem, a0, v), it.Init(11), it.Init(5))
	if got := it.Load(blocked, a0); got == v {
		t.Error("load must not forward past a may-alias store")
	}
}

func TestTermRenderBounded(t *testing.T) {
	it := newInterner()
	t1 := it.Init(4)
	for i := 0; i < 40; i++ {
		t1 = it.Op2(isa.ADD, t1, it.Init(isa.Reg(5+i%20)))
	}
	s := t1.String()
	if !strings.Contains(s, "#") {
		t.Errorf("deep term render should truncate with #id refs: %s", s)
	}
	if len(s) > 4096 {
		t.Errorf("render unbounded: %d bytes", len(s))
	}
}

func TestRegImmLowering(t *testing.T) {
	it := newInterner()
	a := it.Init(4)
	got := it.Op2(isa.ADD, a, it.Const(5))
	// stepIns lowers ADDI r,a,5 through isa's RegForm to the same term.
	op, ok := isa.ADDI.RegForm()
	if !ok || op != isa.ADD {
		t.Fatalf("ADDI should lower to ADD")
	}
	if it.Op2(op, a, it.Const(5)) != got {
		t.Error("reg-imm lowering not confluent with reg-reg form")
	}
}
