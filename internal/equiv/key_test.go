package equiv

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// keyFixture is a hand-built package function with one of everything the
// proof key names: ALU, immediate, LA (block and raw targets), store,
// branch, call, a linked exit with a consumer set, and a loop back to the
// entry.
//
//	b0: r10 = 5; r11 = r1+r10; r12 = &b2; r13 = &raw(64)
//	    if r1 == r2 goto b1 else b2
//	b1: call f1, continue at b3
//	b2: mem[r1+8] = r11; goto x1 (exit, consumes r11)
//	b3: if r11 < r1 goto b0 else x2
type keyFixture struct {
	p          *prog.Program
	fn         *prog.Func
	b          [4]*prog.Block
	x1, x2, x3 *prog.Block
	f1, f2     *prog.Func
	entries    []*prog.Block
	snap       *Snapshot
	cfg        Config
}

func newKeyFixture() *keyFixture {
	k := &keyFixture{}
	bd := prog.NewBuilder()
	k.f1 = bd.Func("f1")
	bd.Ret()
	k.f2 = bd.Func("f2")
	bd.Ret()
	bd.Func("orig")
	k.x1 = bd.Cur()
	bd.Halt()
	k.x2 = bd.NewBlock()
	k.x3 = bd.NewBlock()

	k.fn = bd.Func("pkg")
	bd.Main()
	k.b[0] = bd.Cur()
	k.b[1], k.b[2], k.b[3] = bd.NewBlock(), bd.NewBlock(), bd.NewBlock()
	bd.Li(10, 5)
	bd.Op3(isa.ADD, 11, 1, 10)
	bd.La(12, k.b[2])
	bd.Emit(prog.Ins{Inst: isa.Inst{Op: isa.LA, Rd: 13, Target: 64}})
	bd.Branch(isa.BEQ, 1, 2, k.b[1], k.b[2])
	bd.SetBlock(k.b[1])
	bd.Call(k.f1, k.b[3])
	bd.SetBlock(k.b[2])
	bd.St(11, 1, 8)
	bd.Goto(k.x1)
	k.b[2].ExitConsumes = []isa.Reg{11}
	bd.SetBlock(k.b[3])
	bd.Branch(isa.BLT, 11, 1, k.b[0], k.x2)
	k.p = bd.P
	k.entries = []*prog.Block{k.b[0]}
	return k
}

// capture snapshots the fixture; mutations applied afterwards change
// only the live function.
func (k *keyFixture) capture() *keyFixture {
	k.snap = Capture(k.fn, k.entries, nil)
	return k
}

func (k *keyFixture) key(t *testing.T) Key {
	t.Helper()
	key, _ := problemKey(k.snap, k.cfg.withDefaults(), nil)
	return key
}

// TestKeySensitivity changes one keyed field at a time and checks the key
// changes with it. A field Prove reads but the key omits would let a memo
// hand one problem's certificate to a different problem.
func TestKeySensitivity(t *testing.T) {
	base := newKeyFixture().capture().key(t)
	if again := newKeyFixture().capture().key(t); again != base {
		t.Fatal("two builds of the same problem have different keys")
	}
	cases := []struct {
		name string
		// before runs ahead of Capture, after on the live function.
		before, after func(k *keyFixture)
	}{
		{name: "opcode", after: func(k *keyFixture) { k.b[0].Insts[1].Op = isa.SUB }},
		{name: "rd", after: func(k *keyFixture) { k.b[0].Insts[1].Rd = 14 }},
		{name: "rs1", after: func(k *keyFixture) { k.b[0].Insts[1].Rs1 = 3 }},
		{name: "rs2", after: func(k *keyFixture) { k.b[0].Insts[1].Rs2 = 3 }},
		{name: "immediate", after: func(k *keyFixture) { k.b[0].Insts[0].Imm = 6 }},
		{name: "target", after: func(k *keyFixture) { k.b[0].Insts[3].Target = 72 }},
		{name: "block-target", after: func(k *keyFixture) { k.b[0].Insts[2].BlockTarget = k.b[3] }},
		{name: "kind", after: func(k *keyFixture) { k.b[1].Kind = prog.TermFall }},
		{name: "cmp-op", after: func(k *keyFixture) { k.b[0].CmpOp = isa.BNE }},
		{name: "branch-rs1", after: func(k *keyFixture) { k.b[0].Rs1 = 3 }},
		{name: "branch-rs2", after: func(k *keyFixture) { k.b[0].Rs2 = 3 }},
		{name: "taken-next", after: func(k *keyFixture) { k.b[0].Taken, k.b[0].Next = k.b[0].Next, k.b[0].Taken }},
		{name: "external-target", after: func(k *keyFixture) { k.b[2].Next = k.x3 }},
		{name: "callee", after: func(k *keyFixture) { k.b[1].Callee = k.f2 }},
		{name: "consumes", after: func(k *keyFixture) { k.b[2].ExitConsumes = []isa.Reg{12} }},
		{name: "block-count", after: func(k *keyFixture) { k.p.NewBlock(k.fn) }},
		{name: "live-in", after: func(k *keyFixture) { k.snap.liveIn[k.b[2]] = k.snap.liveIn[k.b[2]].Add(20) }},
		{name: "snapshot-immediate", after: func(k *keyFixture) { k.snap.blocks[k.b[0]].insts[0].Imm = 6 }},
		{name: "entry-set", before: func(k *keyFixture) { k.entries = append(k.entries, k.b[3]) }},
		{name: "max-paths", after: func(k *keyFixture) { k.cfg.MaxPaths = 7 }},
		{name: "fuzz-trials", after: func(k *keyFixture) { k.cfg.FuzzTrials = 3 }},
		{name: "fuzz-steps", after: func(k *keyFixture) { k.cfg.FuzzSteps = 9 }},
	}
	seen := map[Key]string{base: "base"}
	for _, tc := range cases {
		k := newKeyFixture()
		if tc.before != nil {
			tc.before(k)
		}
		k.capture()
		if tc.after != nil {
			tc.after(k)
		}
		got := k.key(t)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: key equals the %s key", tc.name, prev)
			continue
		}
		seen[got] = tc.name
	}
}

// TestKeyIgnoresIdentity renames everything the key must not see — block
// IDs, function names, the package's phase — and checks the key and the
// fuzz fallback's code addresses stay put.
func TestKeyIgnoresIdentity(t *testing.T) {
	a := newKeyFixture().capture()
	b := newKeyFixture()
	for _, fn := range b.p.Funcs {
		fn.Name += "_renamed"
		fn.PhaseID += 9
		for _, blk := range fn.Blocks {
			blk.ID = 1000 - blk.ID
		}
	}
	b.capture()
	if a.key(t) != b.key(t) {
		t.Fatal("renaming blocks and functions changed the key")
	}
	ca := newCanon(a.snap, a.cfg.withDefaults(), false, nil)
	cb := newCanon(b.snap, b.cfg.withDefaults(), false, nil)
	for i := range a.b {
		if ca.index(a.b[i]) != cb.index(b.b[i]) {
			t.Errorf("block %d numbered %d and %d", i, ca.index(a.b[i]), cb.index(b.b[i]))
		}
	}
	if ca.index(a.x1) != cb.index(b.x1) || len(ca.ids) != len(cb.ids) {
		t.Error("external blocks numbered differently")
	}
	// The numbering is the same whether or not the encoding is built.
	_, cenc := problemKey(a.snap, a.cfg.withDefaults(), nil)
	for blk, v := range ca.ids {
		if cenc.ids[blk] != v {
			t.Fatalf("numbering differs with the encoding on: %v", blk)
		}
	}
}

// TestRenderPathMatchesFmt checks the deferred path rendering spells a
// trail exactly as the walker used to build it, one fmt.Sprintf("b%d")
// plus its branch suffix per block.
func TestRenderPathMatchesFmt(t *testing.T) {
	k := newKeyFixture()
	k.b[1].ID = 1234567
	trail := []step{{k.b[0], '+'}, {k.b[1], 0}, {k.b[3], '-'}, {k.b[0], 0}}
	got := renderPath(trail)
	for i, s := range trail {
		want := fmt.Sprintf("b%d", s.b.ID)
		if s.sense != 0 {
			want += string(s.sense)
		}
		if got[i] != want {
			t.Errorf("step %d rendered %q, want %q", i, got[i], want)
		}
	}
}
