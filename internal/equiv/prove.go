package equiv

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Config parameterizes one proof.
type Config struct {
	// MaxPaths caps the number of acyclic paths enumerated symbolically
	// per package (0 = 4096). When exceeded, the proof degrades to
	// bounded differential execution.
	MaxPaths int
	// FuzzTrials is the number of differential-execution trials per entry
	// in the fallback regime (0 = 8); FuzzSteps bounds each trial's
	// dynamic block count (0 = 2048).
	FuzzTrials int
	FuzzSteps  int
}

func (c Config) withDefaults() Config {
	if c.MaxPaths <= 0 {
		c.MaxPaths = 4096
	}
	if c.FuzzTrials <= 0 {
		c.FuzzTrials = 8
	}
	if c.FuzzSteps <= 0 {
		c.FuzzSteps = 2048
	}
	return c
}

// blockSnap is one block's captured pre-optimization contents. Blocks are
// mutated in place by the §5.4 passes, so the snapshot keys by the block
// pointer — which stays stable — and copies everything the passes touch.
type blockSnap struct {
	insts    []prog.Ins
	kind     prog.TermKind
	cmpOp    isa.Opcode
	rs1, rs2 isa.Reg
	taken    *prog.Block
	next     *prog.Block
	callee   *prog.Func
	consumes []isa.Reg
}

// view is the walker-facing shape of a block, served either from the live
// (optimized) block or from the reference snapshot.
type view struct {
	insts    []prog.Ins
	kind     prog.TermKind
	cmpOp    isa.Opcode
	rs1, rs2 isa.Reg
	taken    *prog.Block
	next     *prog.Block
	callee   *prog.Func
	consumes []isa.Reg
}

func liveView(b *prog.Block) view {
	return view{
		insts: b.Insts, kind: b.Kind, cmpOp: b.CmpOp,
		rs1: b.Rs1, rs2: b.Rs2, taken: b.Taken, next: b.Next,
		callee: b.Callee, consumes: b.ExitConsumes,
	}
}

// Snapshot is one package function captured after installation and
// linking but before optimization: the reference the optimized version is
// proved against.
type Snapshot struct {
	fn      *prog.Func
	name    string
	phase   int
	blocks  map[*prog.Block]*blockSnap
	order   []*prog.Block // the captured blocks, in fn.Blocks order
	liveIn  map[*prog.Block]prog.RegSet
	entries []*prog.Block
}

// Package returns the snapshot's package function name.
func (s *Snapshot) Package() string { return s.name }

// Entries returns the proof entry blocks, in block-ID order.
func (s *Snapshot) Entries() []*prog.Block { return s.entries }

func (s *Snapshot) refView(b *prog.Block) (view, bool) {
	bs, ok := s.blocks[b]
	if !ok {
		return view{}, false
	}
	return view{
		insts: bs.insts, kind: bs.kind, cmpOp: bs.cmpOp,
		rs1: bs.rs1, rs2: bs.rs2, taken: bs.taken, next: bs.next,
		callee: bs.callee, consumes: bs.consumes,
	}, true
}

// Capture snapshots fn (a package function) for later proof. It must
// run after installation and linking — so launch arcs, linked exits and
// dummy-consumer sets are in place — and before the optimization passes
// mutate the function. entries seeds the proof's entry set (the package's
// launch-target copies); Capture completes it with fn's blocks in entered,
// the program's prog.Program.EnteredBlocks set: every block entered from
// outside the function (linked sibling exits) and every block whose
// address escapes through an LA instruction (dynamic-launch slots,
// materialized return addresses), since those can be reached with
// arbitrary machine state too.
func Capture(fn *prog.Func, entries []*prog.Block, entered map[*prog.Block]bool) *Snapshot {
	s := &Snapshot{
		fn:     fn,
		name:   fn.Name,
		phase:  fn.PhaseID,
		blocks: make(map[*prog.Block]*blockSnap, len(fn.Blocks)),
		order:  append([]*prog.Block(nil), fn.Blocks...),
	}
	for _, b := range fn.Blocks {
		s.blocks[b] = &blockSnap{
			insts:    append([]prog.Ins(nil), b.Insts...),
			kind:     b.Kind,
			cmpOp:    b.CmpOp,
			rs1:      b.Rs1,
			rs2:      b.Rs2,
			taken:    b.Taken,
			next:     b.Next,
			callee:   b.Callee,
			consumes: append([]isa.Reg(nil), b.ExitConsumes...),
		}
	}
	// Live-in sets for loop-cut comparison come from the same per-function
	// liveness the sink pass consults, so everything sink may legally kill
	// is dead under them and nothing more.
	s.liveIn = prog.ComputeLiveness(fn).In

	seen := make(map[*prog.Block]bool, len(entries)+4)
	add := func(b *prog.Block) {
		if b != nil && b.Fn == fn && !seen[b] {
			seen[b] = true
			s.entries = append(s.entries, b)
		}
	}
	for _, b := range entries {
		add(b)
	}
	add(fn.Entry())
	for _, b := range fn.Blocks {
		if entered[b] {
			add(b)
		}
	}
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].ID < s.entries[j].ID })
	return s
}

// allRegs lists every architectural register except the hardwired zero.
var allRegs = func() []isa.Reg {
	out := make([]isa.Reg, 0, isa.NumRegs-1)
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		out = append(out, r)
	}
	return out
}()

// symState is the symbolic machine state: one term per register plus the
// memory chain. It is copied by value at path forks.
type symState struct {
	regs [isa.NumRegs]*Term
	mem  *Term
}

func (st *symState) get(it *interner, r isa.Reg) *Term {
	if r == isa.R0 || !r.Valid() {
		return it.zero
	}
	return st.regs[r]
}

func (st *symState) set(r isa.Reg, t *Term) {
	if r == isa.R0 || !r.Valid() {
		return
	}
	st.regs[r] = t
}

// stepIns executes one non-terminator instruction symbolically: integer
// ALU ops fold by isa.EvalInt, loads and stores go through the
// alias-aware chain, FP ops stay uninterpreted.
func stepIns(it *interner, st *symState, in prog.Ins) {
	if lop, ok := in.Op.RegForm(); ok {
		st.set(in.Rd, it.Op2(lop, st.get(it, in.Rs1), it.Const(in.Imm)))
		return
	}
	switch in.Op {
	case isa.NOP:
	case isa.LI:
		st.set(in.Rd, it.Const(in.Imm))
	case isa.LA:
		st.set(in.Rd, it.CodeAddr(in.BlockTarget, in.Target))
	case isa.LD, isa.FLD:
		addr := it.Op2(isa.ADD, st.get(it, in.Rs1), it.Const(in.Imm))
		st.set(in.Rd, it.Load(st.mem, addr))
	case isa.ST, isa.FST:
		addr := it.Op2(isa.ADD, st.get(it, in.Rs1), it.Const(in.Imm))
		st.mem = it.Store(st.mem, addr, st.get(it, in.Rs2))
	case isa.FCVTIF, isa.FCVTFI:
		st.set(in.Rd, it.Op1(in.Op, st.get(it, in.Rs1)))
	default:
		if in.Op.IsIntALU() || in.Op == isa.FADD || in.Op == isa.FSUB ||
			in.Op == isa.FMUL || in.Op == isa.FDIV || in.Op == isa.FSLT {
			st.set(in.Rd, it.Op2(in.Op, st.get(it, in.Rs1), st.get(it, in.Rs2)))
			return
		}
		// Defensive: an opcode that should not appear mid-block. Model it
		// as an opaque operation so both versions diverge (or agree)
		// identically rather than crashing the prover.
		if in.Op.HasRd() {
			var a, b *Term
			if in.Op.HasRs1() {
				a = st.get(it, in.Rs1)
			} else {
				a = it.Const(in.Imm)
			}
			if in.Op.HasRs2() {
				b = st.get(it, in.Rs2)
			}
			st.set(in.Rd, it.mk(kOp, in.Op, a, b, it.Const(in.Imm), 0, nil))
		}
	}
}

// havoc forgets everything a call may change: every register (the callee
// has no ABI contract) and all of memory. Matching call positions on the
// two versions use the same sequence number, so their havocs unify.
func (st *symState) havoc(it *interner, seq int) {
	for _, r := range allRegs {
		st.regs[r] = it.Havoc(seq, r)
	}
	st.mem = it.MemHavoc(seq)
}

// canonBranch canonicalizes a conditional terminator to a base predicate
// (== or signed <) plus the sense connecting it to the taken arc. BNE and
// BGE negate the sense rather than the predicate, which is exactly how a
// layout-inverted branch collapses onto its original's term.
func canonBranch(it *interner, st *symState, v view) (pred *Term, takenIfTrue bool) {
	a, b := st.get(it, v.rs1), st.get(it, v.rs2)
	switch v.cmpOp {
	case isa.BEQ:
		return it.Pred(isa.BEQ, a, b), true
	case isa.BNE:
		return it.Pred(isa.BEQ, a, b), false
	case isa.BLT:
		return it.Pred(isa.BLT, a, b), true
	case isa.BGE:
		return it.Pred(isa.BLT, a, b), false
	}
	return it.zero, true // malformed CmpOp; prog.Verify rejects these upstream
}

// evKind classifies one observable path event.
type evKind uint8

const (
	evCall evKind = iota // call into a non-inlined function
	evRet                // return through RRA
	evHalt               // machine halt
	evJr                 // indirect jump
	evExit               // transfer to a block outside the package function
	evLoop               // path cut at the first block revisit
)

func (k evKind) String() string {
	switch k {
	case evCall:
		return "call"
	case evRet:
		return "ret"
	case evHalt:
		return "halt"
	case evJr:
		return "jr"
	case evExit:
		return "exit"
	case evLoop:
		return "loop"
	default:
		return fmt.Sprintf("ev?%d", uint8(k))
	}
}

// event is one observable point on a path. The comparator decides which
// registers matter per kind (everything for calls/returns/indirect jumps,
// the dummy-consumer set for exits, the reference live-in set for loop
// cuts, nothing for halts).
type event struct {
	kind     evKind
	callee   *prog.Func
	target   *prog.Block
	jr       *Term
	regs     [isa.NumRegs]*Term
	mem      *Term
	consumes []isa.Reg
}

// prover carries one package proof.
type prover struct {
	snap      *Snapshot
	cfg       Config
	num       *canon // problem-local block numbering (fuzz code addresses)
	it        *interner
	cert      *Certificate
	ce        *Counterexample
	exceeded  bool
	pathsDone int
	memo      map[*prog.Block]*replayNode
	refBuf    []event              // scratch for materialized replay sequences
	onPath    map[*prog.Block]bool // scratch for refRun cycle detection
}

func (pv *prover) entryState() symState {
	var st symState
	st.regs[0] = pv.it.zero
	for _, r := range allRegs {
		st.regs[r] = pv.it.Init(r)
	}
	st.mem = pv.it.MemInit()
	return st
}

// Prove checks the optimized package function against its snapshot and
// returns the certificate. A nil error means every enumerated path was
// proved (or, past the path budget, every differential trial agreed); a
// non-nil error is always an *Error matching ErrNotEquivalent, carrying
// the structured counterexample.
func Prove(snap *Snapshot, cfg Config) (*Certificate, error) {
	cfg = cfg.withDefaults()
	return prove(snap, cfg, newCanon(snap, cfg, false, nil))
}

// prove runs one proof; cfg has its defaults applied and num is the
// problem's canonical numbering.
func prove(snap *Snapshot, cfg Config, num *canon) (*Certificate, error) {
	pv := &prover{snap: snap, cfg: cfg, it: newInterner(), num: num}
	pv.cert = &Certificate{Package: snap.name, Phase: snap.phase, Entries: len(snap.entries)}

	for _, entry := range snap.entries {
		w := &optWalker{
			pv:     pv,
			entry:  entry,
			onPath: make(map[*prog.Block]bool, 16),
			cons:   make(map[*Term]bool, 8),
		}
		if !w.walk(entry, pv.entryState(), 0) {
			break // counterexample found or budget exceeded
		}
	}
	pv.cert.PathsProved = pv.pathsDone
	pv.cert.BudgetExceeded = pv.exceeded
	if pv.ce == nil && pv.exceeded {
		pv.ce = pv.fuzz()
	}
	pv.cert.Terms = pv.it.size()
	pv.cert.Equivalent = pv.ce == nil
	if pv.ce != nil {
		return pv.cert, &Error{Package: snap.name, Cert: pv.cert, Counterexamples: []Counterexample{*pv.ce}}
	}
	return pv.cert, nil
}

// optWalker enumerates the optimized function's acyclic paths by DFS,
// forking at every undetermined branch and accumulating the fork
// decisions as predicate constraints.
type optWalker struct {
	pv        *prover
	entry     *prog.Block
	onPath    map[*prog.Block]bool
	trail     []step
	events    []event
	cons      map[*Term]bool
	consOrder []*Term
}

// step is one block of the path being walked and the branch decision
// taken there: '+' taken, '-' fallthrough, 0 unconditional.
type step struct {
	b     *prog.Block
	sense byte
}

// renderPath spells a trail the way Counterexample.Path documents it.
// Only a refutation needs it, so the walk itself formats nothing.
func renderPath(trail []step) []string {
	out := make([]string, len(trail))
	for i, s := range trail {
		str := "b" + strconv.Itoa(s.b.ID)
		if s.sense != 0 {
			str += string(s.sense)
		}
		out[i] = str
	}
	return out
}

// walk explores from b with state st; it returns false when exploration
// must stop globally (counterexample or budget).
func (w *optWalker) walk(b *prog.Block, st symState, calls int) bool {
	evMark, trMark := len(w.events), len(w.trail)
	w.onPath[b] = true
	ok := w.walkBlock(b, st, calls)
	delete(w.onPath, b)
	w.events = w.events[:evMark]
	w.trail = w.trail[:trMark]
	return ok
}

func (w *optWalker) walkBlock(b *prog.Block, st symState, calls int) bool {
	pv := w.pv
	it := pv.it
	w.trail = append(w.trail, step{b: b})
	v := liveView(b)
	for _, in := range v.insts {
		stepIns(it, &st, in)
	}
	switch v.kind {
	case prog.TermHalt:
		return w.finish(event{kind: evHalt, mem: st.mem})
	case prog.TermRet:
		return w.finish(event{kind: evRet, regs: st.regs, mem: st.mem})
	case prog.TermJumpReg:
		return w.finish(event{kind: evJr, jr: st.get(it, v.rs1), regs: st.regs, mem: st.mem})
	case prog.TermCall:
		ev := event{kind: evCall, callee: v.callee, regs: st.regs, mem: st.mem}
		ev.regs[isa.RRA] = it.CodeAddr(v.next, 0)
		w.events = append(w.events, ev)
		st.havoc(it, calls)
		calls++
		return w.transition(v.next, v, st, calls)
	case prog.TermFall:
		return w.transition(v.next, v, st, calls)
	case prog.TermBranch:
		pred, tif := canonBranch(it, &st, v)
		at := len(w.trail) - 1
		if pred.kind == kConst {
			to, sense := v.next, byte('-')
			if (pred == it.one) == tif {
				to, sense = v.taken, '+'
			}
			w.trail[at].sense = sense
			return w.transition(to, v, st, calls)
		}
		if hold, decided := w.cons[pred]; decided {
			to, sense := v.next, byte('-')
			if hold == tif {
				to, sense = v.taken, '+'
			}
			w.trail[at].sense = sense
			return w.transition(to, v, st, calls)
		}
		// Fork: taken side first, then fallthrough.
		w.cons[pred] = tif
		w.consOrder = append(w.consOrder, pred)
		w.trail[at].sense = '+'
		if !w.transition(v.taken, v, st, calls) {
			delete(w.cons, pred)
			w.consOrder = w.consOrder[:len(w.consOrder)-1]
			return false
		}
		w.cons[pred] = !tif
		w.trail[at].sense = '-'
		ok := w.transition(v.next, v, st, calls)
		delete(w.cons, pred)
		w.consOrder = w.consOrder[:len(w.consOrder)-1]
		return ok
	}
	return w.finish(event{kind: evHalt, mem: st.mem}) // unreachable TermKind
}

// transition follows one arc out of the current block: an external target
// ends the path with an exit event, a block already on the path ends it
// with a loop-cut event, anything else recurses.
func (w *optWalker) transition(to *prog.Block, from view, st symState, calls int) bool {
	if to == nil || to.Fn != w.pv.snap.fn {
		return w.finish(event{kind: evExit, target: to, regs: st.regs, mem: st.mem, consumes: from.consumes})
	}
	if w.onPath[to] {
		return w.finish(event{kind: evLoop, target: to, regs: st.regs, mem: st.mem})
	}
	return w.walk(to, st, calls)
}

// finish completes one optimized path: replay the reference under the
// path's constraints and compare the event sequences.
func (w *optWalker) finish(terminal event) bool {
	pv := w.pv
	if pv.pathsDone >= pv.cfg.MaxPaths {
		pv.exceeded = true
		return false
	}
	w.events = append(w.events, terminal)
	// The terminal belongs to this completed path only; sibling forks in
	// the enclosing walkBlock frame reuse the shared events slice.
	defer func() { w.events = w.events[:len(w.events)-1] }()
	if n := len(w.trail); n > pv.cert.MaxPathBlocks {
		pv.cert.MaxPathBlocks = n
	}
	refEvents, ce := pv.replay(w.entry, w.cons)
	if ce == nil {
		ce = pv.compare(refEvents, w.events)
	}
	if ce != nil {
		ce.Package = pv.snap.name
		ce.Entry = w.entry.String()
		ce.Path = renderPath(w.trail)
		pv.attachWitness(ce, w.consOrder, w.cons)
		pv.ce = ce
		return false
	}
	pv.pathsDone++
	return true
}

// replayNode is one vertex of the per-entry reference-replay decision
// trie. Consecutive optimized paths differ only in their last few forks,
// so their reference replays share long prefixes; the trie caches the
// symbolic state at every symbolic branch and resumes from the deepest
// matching decision instead of re-executing the whole path. A node is
// either terminal (the replay ended: ownEvents completes the sequence,
// or ce records a constraint-independent structural failure) or a paused
// decision (execution stopped at branchBlk just before deciding pred).
// Each node stores only the events and blocks of its own segment and
// chains to its parent; replay materializes the full sequence into a
// reusable scratch buffer, so resuming allocates nothing proportional to
// the shared prefix.
type replayNode struct {
	parent     *replayNode
	ownEvents  []event         // events emitted by this segment
	ownBlocks  []*prog.Block   // blocks executed by this segment
	depth      int             // total blocks executed up to and including this segment
	ce         *Counterexample // structural failure; cacheable, independent of constraints
	pred       *Term           // nil when terminal
	tif        bool            // the taken arc is followed when pred holds
	taken      *prog.Block
	next       *prog.Block
	st         symState
	calls      int
	branchBlk  *prog.Block // for the unresolved-branch message
	branchCmp  isa.Opcode
	branchRs1  isa.Reg
	branchRs2  isa.Reg
	branchCons []isa.Reg // the branch block's exit-consume set
	t, f       *replayNode
}

// chainEvents materializes the node's full event sequence (root to node)
// into buf, reusing its capacity.
func (n *replayNode) chainEvents(buf []event) []event {
	if n == nil {
		return buf[:0]
	}
	buf = n.parent.chainEvents(buf)
	return append(buf, n.ownEvents...)
}

// replay executes the reference snapshot from entry, deciding every
// branch by constant folding or by the optimized path's constraints. An
// undecidable branch means the optimized version never evaluated this
// predicate — a dropped, retargeted or rewritten branch — and is itself a
// divergence. Replays are memoized in a decision trie keyed by the
// branch outcomes, so a path's reference run costs only its un-shared
// suffix. The returned slice is valid until the next replay call.
func (pv *prover) replay(entry *prog.Block, cons map[*Term]bool) ([]event, *Counterexample) {
	if pv.memo == nil {
		pv.memo = make(map[*prog.Block]*replayNode, len(pv.snap.entries))
	}
	node := pv.memo[entry]
	if node == nil {
		node = pv.refRun(nil, pv.entryState(), 0, entry, nil)
		pv.memo[entry] = node
	}
	for {
		if node.ce != nil {
			pv.refBuf = node.chainEvents(pv.refBuf)
			ce := *node.ce
			return pv.refBuf, &ce
		}
		if node.pred == nil {
			pv.refBuf = node.chainEvents(pv.refBuf)
			return pv.refBuf, nil
		}
		hold, decided := cons[node.pred]
		if !decided {
			pv.refBuf = node.chainEvents(pv.refBuf)
			return pv.refBuf, &Counterexample{
				Kind:    "unresolved-branch",
				RefTerm: node.pred.String(),
				Detail: fmt.Sprintf("reference branch at %s (%s %s, %s) was never decided by the optimized version",
					node.branchBlk, node.branchCmp, node.branchRs1, node.branchRs2),
			}
		}
		child := &node.f
		if hold {
			child = &node.t
		}
		if *child == nil {
			to := node.next
			if hold == node.tif {
				to = node.taken
			}
			*child = pv.refRun(node, node.st, node.calls, to, node.branchCons)
		}
		node = *child
	}
}

// refRun executes the reference from the arc leading to `to` until the
// replay terminates or pauses at a symbolic branch, returning the trie
// node for that segment (chained to parent). st must be private to this
// call (symState is a value; the caller's copy is not aliased).
func (pv *prover) refRun(parent *replayNode, st symState, calls int, to *prog.Block, fromConsumes []isa.Reg) *replayNode {
	it := pv.it
	if pv.onPath == nil {
		pv.onPath = make(map[*prog.Block]bool, 32)
	} else {
		clear(pv.onPath)
	}
	onPath := pv.onPath
	depth := 0
	for n := parent; n != nil; n = n.parent {
		for _, b := range n.ownBlocks {
			onPath[b] = true
		}
	}
	if parent != nil {
		depth = parent.depth
	}
	var ownEvents []event
	var ownBlocks []*prog.Block
	done := func(ev event) *replayNode {
		return &replayNode{parent: parent, ownEvents: append(ownEvents, ev),
			ownBlocks: ownBlocks, depth: depth}
	}
	for {
		if to == nil || to.Fn != pv.snap.fn {
			return done(event{kind: evExit, target: to, regs: st.regs, mem: st.mem, consumes: fromConsumes})
		}
		if onPath[to] {
			return done(event{kind: evLoop, target: to, regs: st.regs, mem: st.mem})
		}
		b := to
		if depth > len(pv.snap.fn.Blocks)+1 {
			return &replayNode{parent: parent, ownEvents: ownEvents, ownBlocks: ownBlocks, depth: depth,
				ce: &Counterexample{
					Kind:   "event-shape",
					Detail: fmt.Sprintf("reference replay exceeded %d blocks without a path cut", depth),
				}}
		}
		onPath[b] = true
		ownBlocks = append(ownBlocks, b)
		depth++
		v, ok := pv.snap.refView(b)
		if !ok {
			return &replayNode{parent: parent, ownEvents: ownEvents, ownBlocks: ownBlocks, depth: depth,
				ce: &Counterexample{
					Kind:   "event-shape",
					Detail: fmt.Sprintf("reference replay reached %s, which is not in the pre-optimization snapshot", b),
				}}
		}
		for _, in := range v.insts {
			stepIns(it, &st, in)
		}
		switch v.kind {
		case prog.TermHalt:
			return done(event{kind: evHalt, mem: st.mem})
		case prog.TermRet:
			return done(event{kind: evRet, regs: st.regs, mem: st.mem})
		case prog.TermJumpReg:
			return done(event{kind: evJr, jr: st.get(it, v.rs1), regs: st.regs, mem: st.mem})
		case prog.TermCall:
			ev := event{kind: evCall, callee: v.callee, regs: st.regs, mem: st.mem}
			ev.regs[isa.RRA] = it.CodeAddr(v.next, 0)
			ownEvents = append(ownEvents, ev)
			st.havoc(it, calls)
			calls++
			to = v.next
		case prog.TermFall:
			to = v.next
		case prog.TermBranch:
			pred, tif := canonBranch(it, &st, v)
			if pred.kind != kConst {
				return &replayNode{
					parent: parent, ownEvents: ownEvents, ownBlocks: ownBlocks, depth: depth,
					pred: pred, tif: tif,
					taken: v.taken, next: v.next,
					st: st, calls: calls,
					branchBlk: b, branchCmp: v.cmpOp, branchRs1: v.rs1, branchRs2: v.rs2,
					branchCons: v.consumes,
				}
			}
			if (pred == it.one) == tif {
				to = v.taken
			} else {
				to = v.next
			}
		}
		fromConsumes = v.consumes
	}
}

// compare checks two event sequences for observational equality. The
// reference event picks the live set: the exiting block's dummy-consumer
// registers for exits (everything when the set is absent, mirroring
// prog.ComputeLiveness's treatment), the reference live-in set at loop
// cuts, every register at calls, returns and indirect jumps.
func (pv *prover) compare(ref, opt []event) *Counterexample {
	n := len(ref)
	if len(opt) < n {
		n = len(opt)
	}
	for i := 0; i < n; i++ {
		re, oe := &ref[i], &opt[i]
		if re.kind != oe.kind {
			return &Counterexample{
				Kind:    "event-shape",
				RefTerm: re.kind.String(),
				OptTerm: oe.kind.String(),
				Detail:  fmt.Sprintf("observable event %d differs in kind", i),
			}
		}
		switch re.kind {
		case evCall:
			if re.callee != oe.callee {
				rn, on := "<nil>", "<nil>"
				if re.callee != nil {
					rn = re.callee.Name
				}
				if oe.callee != nil {
					on = oe.callee.Name
				}
				return &Counterexample{Kind: "callee", RefTerm: rn, OptTerm: on,
					Detail: fmt.Sprintf("call event %d targets different functions", i)}
			}
			if re.regs[isa.RRA] != oe.regs[isa.RRA] {
				return &Counterexample{Kind: "return-address",
					RefTerm: re.regs[isa.RRA].String(), OptTerm: oe.regs[isa.RRA].String(),
					refT: re.regs[isa.RRA], optT: oe.regs[isa.RRA],
					Detail: fmt.Sprintf("call event %d resumes at different blocks", i)}
			}
			if ce := cmpRegs(re, oe, allRegs, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evRet:
			if ce := cmpRegs(re, oe, allRegs, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evJr:
			if re.jr != oe.jr {
				return &Counterexample{Kind: "jump-target",
					RefTerm: re.jr.String(), OptTerm: oe.jr.String(),
					refT: re.jr, optT: oe.jr,
					Detail: fmt.Sprintf("indirect jump event %d targets differ", i)}
			}
			if ce := cmpRegs(re, oe, allRegs, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evHalt:
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evExit:
			if re.target != oe.target {
				return &Counterexample{Kind: "exit-target",
					RefTerm: re.target.String(), OptTerm: oe.target.String(),
					Detail: fmt.Sprintf("exit event %d transfers to different original blocks", i)}
			}
			live := allRegs
			if len(re.consumes) > 0 {
				live = re.consumes
			}
			if ce := cmpRegs(re, oe, live, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evLoop:
			if re.target != oe.target {
				return &Counterexample{Kind: "loop-point",
					RefTerm: re.target.String(), OptTerm: oe.target.String(),
					Detail: fmt.Sprintf("loop cut %d revisits different blocks", i)}
			}
			live := pv.snap.liveIn[re.target]
			for _, r := range allRegs {
				if live.Has(r) && re.regs[r] != oe.regs[r] {
					return regDiverges(re, oe, r, i)
				}
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		}
	}
	if len(ref) != len(opt) {
		return &Counterexample{
			Kind:    "event-shape",
			RefTerm: fmt.Sprintf("%d events", len(ref)),
			OptTerm: fmt.Sprintf("%d events", len(opt)),
			Detail:  "the versions perform different numbers of observable events",
		}
	}
	return nil
}

func cmpRegs(re, oe *event, live []isa.Reg, i int) *Counterexample {
	for _, r := range live {
		if r == isa.R0 {
			continue
		}
		if re.regs[r] != oe.regs[r] {
			return regDiverges(re, oe, r, i)
		}
	}
	return nil
}

func regDiverges(re, oe *event, r isa.Reg, i int) *Counterexample {
	return &Counterexample{Kind: "reg", Reg: r.String(),
		RefTerm: re.regs[r].String(), OptTerm: oe.regs[r].String(),
		refT: re.regs[r], optT: oe.regs[r],
		Detail: fmt.Sprintf("live-out register diverges at %s event %d", re.kind, i)}
}

func cmpMem(re, oe *event, i int) *Counterexample {
	if re.mem != oe.mem {
		return &Counterexample{Kind: "mem",
			RefTerm: re.mem.String(), OptTerm: oe.mem.String(),
			refT: re.mem, optT: oe.mem,
			Detail: fmt.Sprintf("memory effect chain diverges at %s event %d", re.kind, i)}
	}
	return nil
}
