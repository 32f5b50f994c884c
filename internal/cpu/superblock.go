package cpu

// Superblock tier (tier 1) of the block-structured timed simulation.
//
// Tier 0 (blockcache.go) dispatches one decoded basic block at a time:
// execBlock re-loads operand registers through geti/setf accessors,
// re-derives issue masks from the FU class, and returns to the dispatch
// loop after every block. Hot code is dominated by a few short cycles of
// blocks — the same kernels the paper's superblock packer extracts — so
// almost every dispatch takes a transition the cache has already chained.
//
// Tier 1 promotes a block whose dispatch count crosses a hotness
// threshold into a *superblock*: the chain of blocks reached by following
// its observed majority successors (fall/taken bias counters maintained
// by the dispatch loop), flattened into one specialized slot array. Each
// slot carries everything execution needs, pre-resolved at promotion
// time: direct register-file indices (every image satisfies
// isa.Inst.CheckOperands, so the executor indexes IntRegs/FPRegs with a
// mask instead of accessor calls and bounds checks), the packed
// issue-state masks for its FU
// class, its latency, and static I-line crossing marks (inside a trace
// every line boundary is known at build time; only trace entry compares
// lines dynamically). Conditional terminators inside the trace become
// *guards*: the branch executes and predicts exactly as in tier 0, and
// if control leaves the stitched path the executor side-exits back to
// the dispatch loop at the block that actually ran last. A trace whose
// successor returns to its own head loops internally without leaving the
// executor at all.
//
// Equivalence contract: tier 1 is bit-identical to tier 0 (and hence to
// the legacy loop) in TimingStats, machine state and DataHash, *and* in
// BlockCacheStats — every internal trace transition follows a chain
// pointer tier 0 would have taken, so it counts as Chained, and every
// side exit re-enters the dispatch switch exactly where tier 0 would
// have. Promotion only specializes instructions whose semantics it can
// reproduce exactly; a load into R0 (whose result the trace's load body
// would write to R0) pins the block to tier 0 with noSB.
//
// Invalidation: superblocks hang off their head block, so Bind/
// Invalidate dropping the decoded blocks drops every trace with them.
// Demotion: a trace that keeps side-exiting (guards failing on more than
// half its passes after a warm-up) is torn down and its head pinned to
// tier 0 — the branch bias it was stitched on no longer holds.

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// DefaultSuperblockThreshold is the number of tier-0 dispatches after
// which a block is promoted into a superblock trace.
const DefaultSuperblockThreshold = 16

const (
	// maxSuperblockBlocks and maxSuperblockSlots cap trace size; traces
	// past either cap simply end early with a normal exit.
	maxSuperblockBlocks = 64
	maxSuperblockSlots  = 256

	// demoteMinExecs is the warm-up before the side-exit ratio is
	// consulted: a trace with execs >= this whose *first* guard has
	// missed on more than half of them is demoted — the bias it was
	// stitched on no longer holds. Later guard misses are not evidence
	// against the trace: the specialized prefix still ran.
	demoteMinExecs = 64
)

// Terminator-slot flags, continuing the slotNeedRs1.. group from
// blockcache.go. Exactly one of slotExit / slotLoop / neither (internal
// guard) is set on a terminator slot.
const (
	slotCtl  = 1 << 4 // terminator: control handling + guard/exit logic
	slotExit = 1 << 5 // final slot: always leaves the trace
	slotLoop = 1 << 6 // back-edge to the trace head: loop internally
)

// SuperblockStats counts tier-1 activity for one BlockCache.
type SuperblockStats struct {
	Promoted     uint64 // traces built
	Demoted      uint64 // traces torn down for side-exiting
	SideExits    uint64 // guard misses that left a trace early
	ChainedInsts uint64 // instructions retired inside traces
}

// sslot is one specialized slot of a superblock: functional opcode,
// pre-resolved register indices, timing metadata and the packed
// issue-state masks, flattened so the executor never consults isa.Meta,
// the decoded block, or the instruction image.
type sslot struct {
	kind  uint8 // isa.Opcode selecting the functional body (NOP: timing only)
	lat   uint8
	flags uint8
	rd    uint8 // scoreboardDummy when the slot defines no register
	rs1   uint8
	rs2   uint8

	// tr1/tr2 are the scoreboard indices consulted for operand
	// readiness: the architectural register when the operand is read,
	// readyDummy (an always-zero entry) otherwise, so readiness is two
	// unconditional loads instead of two data-dependent branches.
	tr1 uint8
	tr2 uint8

	need uint64 // packed issue subtract mask for this slot's FU class
	hi   uint64 // packed issue high-bit mask
	imm  int64  // immediate / static branch target / LA target
	pc   int64  // absolute slot address
	next int64  // guard: expected next PC after a terminator slot
}

// Scoreboard dummy indices, past every architectural register:
// scoreboardDummy is written by slots that define no register (making
// the executor's scoreboard update unconditional) and never read;
// readyDummy is read by operands that don't exist (always zero — no
// slot ever writes it) and never written.
const (
	scoreboardDummy = 63
	readyDummy      = 62
)

// superblock is one promoted trace.
type superblock struct {
	entry int64
	head  *block
	slots []sslot

	// Per-slot cold metadata, touched only at exits and faults: the
	// constituent block owning each slot (handed back to the dispatch
	// loop), and package-slot prefixes — exitPkg counts completed blocks
	// through the slot's own, faultPkg excludes the partial block, both
	// matching tier 0's per-completed-block coverage accounting.
	blks     []*block
	exitPkg  []uint64
	faultPkg []uint64

	totalPkg  uint64 // package slots per full pass (loop traces)
	loopFetch bool   // loop-back re-entry crosses an I-line

	// firstGuard is the slot index of the earliest guard (a terminator
	// that can side-exit), -1 when the trace has none. A side exit past
	// the first guard still ran a specialized prefix, so only first-
	// guard misses argue the stitch direction itself was wrong.
	firstGuard int

	execs      uint64 // passes started (dispatches + internal loop-backs)
	sideExits  uint64
	earlyExits uint64 // side exits at the first guard
}

// promote builds a superblock headed by b, or pins b to tier 0 (noSB)
// when any instruction on the trace resists specialization. The trace
// follows the successor with the larger observed bias at each stitched
// terminator — along the already-chained pointer, so tier 0 would count
// the same transition as Chained — and ends at dynamic-target
// terminators, unbiased successors, size caps, or a revisit (a revisit
// of the head marks an internal loop instead).
func (bc *BlockCache) promote(b *block) *superblock {
	if !b.hasTerm {
		b.noSB = true
		return nil
	}
	sb := &superblock{entry: b.entry, head: b}
	members := make(map[*block]bool, 8)
	var pkgPrefix uint64
	cur := b
	for {
		members[cur] = true
		startSlot := len(sb.slots)
		n := len(cur.insts)
		for j := 0; j < n; j++ {
			s, ok := specializeSlot(&cur.insts[j], cur.slots[j], cur.entry+int64(j), j == n-1)
			if !ok {
				b.noSB = true
				return nil
			}
			s.tr1, s.tr2 = readyDummy, readyDummy
			if s.flags&slotNeedRs1 != 0 {
				s.tr1 = s.rs1
			}
			if s.flags&slotNeedRs2 != 0 {
				s.tr2 = s.rs2
			}
			if s.flags&slotWritesRd == 0 {
				s.rd = scoreboardDummy
			}
			sb.slots = append(sb.slots, s)
			sb.blks = append(sb.blks, cur)
			sb.faultPkg = append(sb.faultPkg, pkgPrefix)
			sb.exitPkg = append(sb.exitPkg, pkgPrefix+cur.pkgN)
		}
		if startSlot > 0 {
			// Constituent entry: tier 0 compares lines at block entry;
			// inside a trace the preceding slot's line is known, so the
			// crossing is static.
			if cur.entry>>3 != sb.slots[startSlot-1].pc>>3 {
				sb.slots[startSlot].flags |= slotNewLine
			}
		}
		pkgPrefix += cur.pkgN

		last := &sb.slots[len(sb.slots)-1]
		var nxt *block
		var expected int64
		switch isa.Opcode(last.kind) {
		case isa.RET, isa.JR, isa.HALT:
			// Dynamic target (or program end): the trace ends here.
		case isa.JMP, isa.CALL:
			expected, nxt = cur.takenPC, cur.taken
		default: // conditional branch: follow the observed bias
			if cur.takenSeen > cur.fallSeen {
				expected, nxt = cur.takenPC, cur.taken
			} else {
				expected, nxt = cur.fallPC, cur.fall
			}
		}
		switch {
		case nxt == nil:
			last.flags |= slotExit
		case nxt == b:
			last.flags |= slotLoop
			last.next = expected
			sb.loopFetch = sb.entry>>3 != last.pc>>3
		case members[nxt], !nxt.hasTerm,
			len(members) >= maxSuperblockBlocks,
			len(sb.slots)+len(nxt.insts) > maxSuperblockSlots:
			last.flags |= slotExit
		default:
			last.next = expected
			cur = nxt
			continue
		}
		break
	}
	sb.totalPkg = pkgPrefix
	sb.firstGuard = -1
	for i := range sb.slots {
		if f := sb.slots[i].flags; f&slotCtl != 0 && f&slotExit == 0 {
			sb.firstGuard = i
			break
		}
	}
	b.sb = sb
	bc.SB.Promoted++
	return sb
}

// specializeSlot translates one decoded instruction into its specialized
// slot. A result written to R0 is discarded, so the slot keeps only its
// timing. It reports false when the instruction's exact semantics need
// the generic path (tier 0 then keeps the block).
func specializeSlot(in *isa.Inst, si slotInfo, pc int64, isTerm bool) (sslot, bool) {
	s := sslot{
		kind: uint8(in.Op), lat: si.lat, flags: si.flags,
		rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2),
		need: issueNeed(si.fu), hi: issueHigh(si.fu),
		imm: in.Imm, pc: pc,
	}
	if in.Op.HasTarget() {
		s.imm = in.Target
	}
	if isTerm {
		if in.Op == isa.RET {
			// Tier 0 folds the implicit RRA read into operand readiness.
			s.rs1 = uint8(isa.RRA)
			s.flags |= slotNeedRs1
		}
		s.flags |= slotCtl
		return s, true
	}
	if in.Op.HasRd() && in.Rd == isa.R0 {
		if in.Op == isa.LD {
			return s, false
		}
		s.kind = uint8(isa.NOP) // discarded result: timing only
	}
	return s, true
}

// superFault mirrors blockFault for a fault at trace slot k: retire the
// k completed slots, credit the package coverage of the blocks that
// completed, and park PC on the faulting instruction. chained is the
// dispatch's locally accumulated guard-pass count, flushed here so the
// cache's cumulative stats stay exact across a faulting run.
func (t *timing) superFault(m *Machine, bc *BlockCache, sb *superblock, k int, chained uint64, err error) error {
	bc.Stats.Chained += chained
	t.Stats.Insts += uint64(k)
	t.Stats.PackageInsts += sb.faultPkg[k]
	m.InstCount += uint64(k)
	bc.SB.ChainedInsts += uint64(k)
	m.PC = sb.slots[k].pc
	return err
}

// execSuper runs one dispatch of a superblock trace: the specialized
// flat-slot loop, guards at stitched terminators, internal loop-backs,
// and batched accounting at every exit. It returns the next PC and the
// constituent block that actually ran last, so the dispatch loop resumes
// exactly where tier 0 would have.
//
// The hot timing state — cycle, packed issue word, fetchReady, the RAW
// stall counter and the Chained count — lives in locals for the whole
// dispatch so the slot loop runs out of registers; every return path
// writes it back through flush-style assignments first.
func (t *timing) execSuper(m *Machine, bc *BlockCache, sb *superblock) (int64, *block, error) {
	slots := sb.slots
	sb.execs++

	cycle := t.cycle
	free := t.free
	freeInit := t.freeInit
	fetchReady := t.fetchReady
	rawStalls := t.Stats.RAWStalls
	var chained uint64
	sink := t.sink

	// Memory-op state, hoisted so the LD/ST slot bodies can run the dense
	// windows, the store hash, and the D-cache latency walk inline. The
	// dense slices are re-read from mem per access — a fallback store can
	// grow them mid-trace.
	mem := m.Mem
	fast := !mem.noFast
	l1d, l2 := t.l1d, t.l2
	ldLat := uint64(isa.LD.Latency())
	l2Lat, memLat := uint64(t.cfg.L2Latency), uint64(t.cfg.MemLatency)

	// Trace entry may land on the line fetch is already on; inside the
	// trace every crossing is a static slotNewLine mark.
	if line := sb.entry >> 3; line != t.lastLine {
		fetchReady = t.lineFetchAt(sb.entry, cycle, fetchReady)
	}

	for k := 0; k < len(slots); k++ {
		s := &slots[k]
		fl := s.flags
		if fl&slotNewLine != 0 {
			fetchReady = t.lineFetchAt(s.pc, cycle, fetchReady)
		}
		earliest := max(cycle, fetchReady)
		opndReady := max(t.regReady[s.tr1&63], t.regReady[s.tr2&63])
		if opndReady > earliest {
			rawStalls += opndReady - earliest
			earliest = opndReady
		}
		if earliest > cycle {
			cycle = earliest
			free = freeInit
		}
		f2 := free - s.need
		for f2&s.hi != s.hi {
			cycle++
			free = freeInit
			f2 = free - s.need
		}
		free = f2
		issue := cycle

		if fl&slotCtl != 0 {
			op := isa.Opcode(s.kind)
			next := s.pc + 1 // the owning block's fall-through PC
			taken := false
			condBranch := false
			switch op {
			case isa.BEQ:
				condBranch = true
				taken = isa.Taken(isa.BEQ, m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
			case isa.BNE:
				condBranch = true
				taken = isa.Taken(isa.BNE, m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
			case isa.BLT:
				condBranch = true
				taken = isa.Taken(isa.BLT, m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
			case isa.BGE:
				condBranch = true
				taken = isa.Taken(isa.BGE, m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
			case isa.JMP:
				taken = true
				next = s.imm
			case isa.CALL:
				taken = true
				m.IntRegs[isa.RRA] = s.pc + 1
				next = s.imm
			case isa.RET:
				taken = true
				next = m.IntRegs[isa.RRA]
			case isa.JR:
				taken = true
				next = m.IntRegs[s.rs1&31]
			case isa.HALT:
				m.Halted = true
				t.cycle, t.free, t.fetchReady = cycle, free, fetchReady
				t.Stats.RAWStalls = rawStalls
				bc.Stats.Chained += chained
				t.Stats.Insts += uint64(k + 1)
				t.Stats.PackageInsts += sb.exitPkg[k]
				m.InstCount += uint64(k + 1)
				bc.SB.ChainedInsts += uint64(k + 1)
				m.PC = next
				return next, sb.blks[k], nil
			}
			if condBranch && taken {
				next = s.imm
			}
			if op == isa.CALL {
				// CALL implicitly defines RRA.
				if ready := issue + uint64(s.lat); t.regReady[isa.RRA] < ready {
					t.regReady[isa.RRA] = ready
				}
			}
			redirect := false
			switch {
			case condBranch:
				t.Stats.CondBranches++
				if sink != nil {
					// Completed passes are already in InstCount (loop-backs
					// account theirs); this pass has retired k+1 slots.
					sink(s.pc, taken, m.InstCount+uint64(k+1))
				}
				if !t.pred.PredictCond(s.pc, taken) {
					redirect = true
				} else if taken && !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			case op == isa.JMP:
				if !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			case op == isa.CALL:
				t.pred.PushRAS(s.pc + 1)
				if !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			case op == isa.RET:
				if !t.pred.PopRAS(next) {
					redirect = true
				}
			case op == isa.JR:
				if !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			}
			if redirect {
				if c := issue + uint64(t.cfg.BranchResolution); fetchReady < c {
					fetchReady = c
				}
			} else if taken {
				t.Stats.FetchBreaks++
				if fetchReady < issue+1 {
					fetchReady = issue + 1
				}
			}

			if fl&slotExit != 0 || next != s.next {
				// Trace exit: the final slot, or a guard miss (control
				// left the stitched path — a side exit).
				t.cycle, t.free, t.fetchReady = cycle, free, fetchReady
				t.Stats.RAWStalls = rawStalls
				bc.Stats.Chained += chained
				t.Stats.Insts += uint64(k + 1)
				t.Stats.PackageInsts += sb.exitPkg[k]
				m.InstCount += uint64(k + 1)
				bc.SB.ChainedInsts += uint64(k + 1)
				if fl&slotExit == 0 {
					bc.SB.SideExits++
					sb.sideExits++
					if k == sb.firstGuard {
						sb.earlyExits++
						if sb.execs >= demoteMinExecs && sb.earlyExits*2 > sb.execs {
							sb.head.sb = nil
							sb.head.noSB = true
							bc.SB.Demoted++
						}
					}
				}
				m.PC = next
				return next, sb.blks[k], nil
			}
			// Guard passed: the transition follows a chain pointer tier 0
			// would have taken.
			chained++
			if fl&slotLoop != 0 {
				// Back to the head: account the completed pass and
				// restart the slot loop without leaving the executor.
				t.Stats.Insts += uint64(len(slots))
				t.Stats.PackageInsts += sb.totalPkg
				m.InstCount += uint64(len(slots))
				bc.SB.ChainedInsts += uint64(len(slots))
				sb.execs++
				if sb.loopFetch {
					fetchReady = t.lineFetchAt(sb.entry, cycle, fetchReady)
				}
				k = -1
			}
			continue
		}

		lat := uint64(s.lat)
		switch isa.Opcode(s.kind) {
		case isa.NOP: // includes specialized discarded-result ops
		case isa.ADD:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] + m.IntRegs[s.rs2&31]
		case isa.SUB:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] - m.IntRegs[s.rs2&31]
		case isa.MUL:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] * m.IntRegs[s.rs2&31]
		case isa.DIV:
			m.IntRegs[s.rd&31] = isa.Div(m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
		case isa.REM:
			m.IntRegs[s.rd&31] = isa.Rem(m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
		case isa.AND:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] & m.IntRegs[s.rs2&31]
		case isa.OR:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] | m.IntRegs[s.rs2&31]
		case isa.XOR:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] ^ m.IntRegs[s.rs2&31]
		case isa.SHL:
			m.IntRegs[s.rd&31] = isa.Shl(m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
		case isa.SHR:
			m.IntRegs[s.rd&31] = isa.Shr(m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
		case isa.SLT:
			m.IntRegs[s.rd&31] = isa.Slt(m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])
		case isa.SEQ:
			m.IntRegs[s.rd&31] = isa.Seq(m.IntRegs[s.rs1&31], m.IntRegs[s.rs2&31])

		case isa.ADDI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] + s.imm
		case isa.MULI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] * s.imm
		case isa.ANDI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] & s.imm
		case isa.ORI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] | s.imm
		case isa.XORI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] ^ s.imm
		case isa.SHLI:
			m.IntRegs[s.rd&31] = isa.Shl(m.IntRegs[s.rs1&31], s.imm)
		case isa.SHRI:
			m.IntRegs[s.rd&31] = isa.Shr(m.IntRegs[s.rs1&31], s.imm)
		case isa.SLTI:
			m.IntRegs[s.rd&31] = isa.Slt(m.IntRegs[s.rs1&31], s.imm)
		case isa.LI:
			m.IntRegs[s.rd&31] = s.imm

		case isa.LD:
			addr := m.IntRegs[s.rs1&31] + s.imm
			w := addr >> 3
			var v int64
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				v = mem.data[d]
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				v = mem.stack[d]
			} else {
				var err error
				if v, err = mem.Load(addr); err != nil {
					return 0, nil, t.superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
				}
			}
			m.IntRegs[s.rd&31] = v
			lat = ldLat
			// Inline MRU hit (same counter/stamp updates as Access).
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				lat += l2Lat
				if !l2.Access(addr) {
					lat += memLat
				}
			}
		case isa.ST:
			addr := m.IntRegs[s.rs1&31] + s.imm
			val := m.IntRegs[s.rs2&31]
			w := addr >> 3
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				mem.data[d] = val
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				mem.stack[d] = val
			} else if err := mem.Store(addr, val); err != nil {
				return 0, nil, t.superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
			}
			if addr >= prog.DataBase && addr < prog.StackBase/2 {
				h := mix64(m.dataHash ^ uint64(addr))
				m.dataHash = mix64(h ^ uint64(val))
				m.dataCount++
			}
			// Stores touch the cache; the latency is hidden.
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				l2.Access(addr)
			}

		case isa.FADD:
			m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] + m.FPRegs[(s.rs2-32)&15]
		case isa.FSUB:
			m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] - m.FPRegs[(s.rs2-32)&15]
		case isa.FMUL:
			m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] * m.FPRegs[(s.rs2-32)&15]
		case isa.FDIV:
			m.FPRegs[(s.rd-32)&15] = isa.FDiv(m.FPRegs[(s.rs1-32)&15], m.FPRegs[(s.rs2-32)&15])
		case isa.FSLT:
			m.IntRegs[s.rd&31] = isa.FSlt(m.FPRegs[(s.rs1-32)&15], m.FPRegs[(s.rs2-32)&15])
		case isa.FCVTIF:
			m.FPRegs[(s.rd-32)&15] = float64(m.IntRegs[s.rs1&31])
		case isa.FCVTFI:
			m.IntRegs[s.rd&31] = int64(m.FPRegs[(s.rs1-32)&15])
		case isa.FLD:
			addr := m.IntRegs[s.rs1&31] + s.imm
			w := addr >> 3
			var v int64
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				v = mem.data[d]
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				v = mem.stack[d]
			} else {
				var err error
				if v, err = mem.Load(addr); err != nil {
					return 0, nil, t.superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
				}
			}
			m.FPRegs[(s.rd-32)&15] = math.Float64frombits(uint64(v))
			lat = ldLat
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				lat += l2Lat
				if !l2.Access(addr) {
					lat += memLat
				}
			}
		case isa.FST:
			addr := m.IntRegs[s.rs1&31] + s.imm
			bits := int64(math.Float64bits(m.FPRegs[(s.rs2-32)&15]))
			w := addr >> 3
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				mem.data[d] = bits
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				mem.stack[d] = bits
			} else if err := mem.Store(addr, bits); err != nil {
				return 0, nil, t.superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
			}
			if addr >= prog.DataBase && addr < prog.StackBase/2 {
				h := mix64(m.dataHash ^ uint64(addr))
				m.dataHash = mix64(h ^ uint64(bits))
				m.dataCount++
			}
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				l2.Access(addr)
			}

		case isa.LA:
			m.IntRegs[s.rd&31] = s.imm
		default:
			return 0, nil, t.superFault(m, bc, sb, k, chained,
				fmt.Errorf("cpu: pc %d: invalid opcode %v", s.pc, isa.Opcode(s.kind)))
		}

		// Unconditional scoreboard update: slots that define no register
		// carry the dummy index, which is never read.
		if ready := issue + lat; t.regReady[s.rd&63] < ready {
			t.regReady[s.rd&63] = ready
		}
	}
	// Unreachable: the final slot always carries slotExit or slotLoop.
	panic("cpu: superblock trace fell off its final slot")
}
