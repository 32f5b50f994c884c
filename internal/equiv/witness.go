package equiv

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// mix is a splitmix64-style hash used wherever the proof needs a
// deterministic "arbitrary" value: havoc register contents, unwritten
// memory words, code addresses, uninterpreted-operation results. It is a
// pure function of its inputs, so matching positions on the reference and
// optimized sides always agree.
func mix(xs ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= uint64(x)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

// termEval evaluates terms in the term model: integer operations use the
// exact machine semantics, initial registers come from the trial
// assignment, havocs and unwritten memory are deterministic functions of
// their identity, and uninterpreted operations (FP, conversions) are
// deterministic functions of their opcode and operand values — congruence
// is what the symbolic proof uses too, so a witness found here refutes
// exactly what the prover compared.
type termEval struct {
	seed int64
	init [isa.NumRegs]int64
	memo map[*Term]int64
}

func newTermEval(seed int64) *termEval {
	return &termEval{seed: seed, memo: make(map[*Term]int64, 64)}
}

func (ev *termEval) eval(t *Term) int64 {
	if t == nil {
		return 0
	}
	if v, ok := ev.memo[t]; ok {
		return v
	}
	var v int64
	switch t.kind {
	case kConst:
		v = t.k
	case kInit:
		v = ev.init[t.k]
	case kHavoc:
		v = mix(ev.seed, 2, t.k)
	case kCodeAddr:
		v = codeAddrVal(t.blk, t.k)
	case kPred:
		if isa.Taken(t.op, ev.eval(t.a), ev.eval(t.b)) {
			v = 1
		}
	case kLoad:
		v = ev.evalLoad(t.a, ev.eval(t.b))
	case kOp:
		if t.op.IsIntALU() {
			v = isa.EvalInt(t.op, ev.eval(t.a), ev.eval(t.b))
		} else if t.b != nil {
			v = mix(6, int64(t.op), ev.eval(t.a), ev.eval(t.b))
		} else {
			v = mix(6, int64(t.op), ev.eval(t.a))
		}
	case kMemInit, kMemHavoc, kStore:
		// Memory chains have no scalar value; they are only observed
		// through evalLoad. A defensive structural hash keeps the evaluator
		// total.
		v = mix(ev.seed, 3, int64(t.id))
	}
	ev.memo[t] = v
	return v
}

// evalLoad reads a concrete address from a memory chain: the topmost
// store whose address evaluates equal forwards its value, everything else
// is skipped, and the chain bottom supplies a deterministic default.
func (ev *termEval) evalLoad(chain *Term, addr int64) int64 {
	m := chain
	for m != nil && m.kind == kStore {
		if ev.eval(m.b) == addr {
			return ev.eval(m.c)
		}
		m = m.a
	}
	if m != nil && m.kind == kMemHavoc {
		return mix(5, 1+m.k, addr)
	}
	return mix(5, 0, addr)
}

// codeAddrVal is the term evaluator's concrete stand-in for a block's
// code address. Witnesses are only built for refutations, which are never
// reused, so it may number blocks by ID (the fuzz fallback, whose
// certificates are reused, uses prover.codeAddr).
func codeAddrVal(blk *prog.Block, raw int64) int64 {
	if blk != nil {
		return mix(7, int64(blk.ID), 0)
	}
	return mix(7, raw, 1)
}

// initFor is trial t's initial value for register r: structured corner
// cases first (zeros, ones, register identity, word-aligned addresses,
// negatives, spread primes), then pseudo-random fill.
func initFor(trial int, r isa.Reg) int64 {
	switch trial {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return int64(r)
	case 3:
		return 8 * int64(r)
	case 4:
		return -int64(r)
	case 5:
		return int64(r) * 7919
	default:
		return mix(int64(trial), int64(r))
	}
}

const witnessTrials = 64

// attachWitness tries to find a concrete entry state that satisfies every
// constraint on the diverging path and makes the two diverging terms
// evaluate to different values in the term model. Finding one upgrades
// the counterexample from "the terms differ structurally" to "here is an
// input on which the versions disagree"; not finding one leaves the
// structural refutation standing.
func (pv *prover) attachWitness(ce *Counterexample, order []*Term, cons map[*Term]bool) {
	if ce.refT == nil && ce.optT == nil {
		return
	}
	for trial := 0; trial < witnessTrials; trial++ {
		ev := newTermEval(int64(trial) + 1)
		for _, r := range allRegs {
			ev.init[r] = initFor(trial, r)
		}
		sat := true
		for _, p := range order {
			if (ev.eval(p) != 0) != cons[p] {
				sat = false
				break
			}
		}
		if !sat {
			continue
		}
		if ce.Kind == "mem" {
			if w := memWitness(ev, ce.refT, ce.optT); w != "" {
				ce.Witness = renderAssignment(ev, ce.refT, ce.optT) + w
				return
			}
			continue
		}
		rv, ov := ev.eval(ce.refT), ev.eval(ce.optT)
		if rv == ov {
			continue
		}
		ce.Witness = fmt.Sprintf("%s⇒ ref=%d, opt=%d", renderAssignment(ev, ce.refT, ce.optT), rv, ov)
		return
	}
}

// memWitness probes every store address appearing on either chain and
// reports the first word the two memories disagree on.
func memWitness(ev *termEval, ref, opt *Term) string {
	var addrs []*Term
	for _, chain := range []*Term{ref, opt} {
		for m := chain; m != nil && m.kind == kStore; m = m.a {
			addrs = append(addrs, m.b)
		}
	}
	seen := make(map[int64]bool, len(addrs))
	for _, at := range addrs {
		a := ev.eval(at)
		if seen[a] {
			continue
		}
		seen[a] = true
		rv, ov := ev.evalLoad(ref, a), ev.evalLoad(opt, a)
		if rv != ov {
			return fmt.Sprintf("⇒ mem[%d]: ref=%d, opt=%d", a, rv, ov)
		}
	}
	return ""
}

// renderAssignment renders the initial-register assignment restricted to
// the registers the diverging terms actually mention.
func renderAssignment(ev *termEval, ts ...*Term) string {
	regs := make(map[isa.Reg]bool)
	seen := make(map[*Term]bool)
	for _, t := range ts {
		collectInits(t, seen, regs)
	}
	if len(regs) == 0 {
		return ""
	}
	var order []isa.Reg
	for r := range regs {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	if len(order) > 8 {
		order = order[:8]
	}
	var sb strings.Builder
	for _, r := range order {
		fmt.Fprintf(&sb, "%s₀=%d, ", r, ev.init[r])
	}
	return sb.String()
}

func collectInits(t *Term, seen map[*Term]bool, regs map[isa.Reg]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if t.kind == kInit {
		regs[isa.Reg(t.k)] = true
		return
	}
	collectInits(t.a, seen, regs)
	collectInits(t.b, seen, regs)
	collectInits(t.c, seen, regs)
}
