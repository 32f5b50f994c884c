package cpu

// Block-structured timed simulation. The legacy RunTimed loop interprets
// one instruction at a time: Machine.exec fills a StepInfo record, then
// timing.observe re-derives per-opcode metadata, re-computes the I-line,
// and re-checks package membership for every retired instruction. Execution
// is dominated by small repeating kernels, so almost all of that work is
// identical every time a basic block re-executes.
//
// BlockCache pre-decodes each basic block once — on first dynamic entry —
// into a flat record: the instruction run (aliasing the image, never
// copied), per-slot resource class/latency/operand flags, I-line boundary
// marks, and the static intra-block summary the issue logic needs (which
// operands are live, which slots define a register). timing.execBlock then
// dispatches whole blocks through a single fused functional+timing loop
// that touches the predictor only at block boundaries and the data caches
// only at loads/stores, with DBT-style block chaining for fall-through and
// taken successors. The cached path is bit-identical to the legacy path:
// TestBlockCacheEquivalence asserts equal TimingStats and DataHash over
// the full workload suite.
//
// Invalidation rule: a cache is valid for exactly one *prog.Image. Images
// are immutable once linearized, so entries never go stale underneath a
// run; installing a different image (Bind) evicts every decoded block.

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Per-slot flag bits, pre-decoded so the fused loop replaces three
// isa.Meta field tests and a line computation with one mask test each.
const (
	slotNeedRs1  = 1 << iota // operand 1 is read and is not R0
	slotNeedRs2              // operand 2 is read and is not R0
	slotWritesRd             // defines Rd (and Rd is not R0)
	slotNewLine              // first slot of a new I-cache line inside the block
)

// slotInfo is the pre-decoded timing metadata for one instruction slot.
type slotInfo struct {
	fu    isa.FUClass
	lat   uint8
	flags uint8
}

// block is one decoded basic block: a straight-line instruction run from
// its entry PC up to and including the first control instruction.
type block struct {
	entry int64
	insts []isa.Inst // aliases the image's code, never copied
	slots []slotInfo
	pkgN  uint64 // slots belonging to package functions (coverage metric)

	hasTerm bool  // false only when the run hit the end of the image
	fallPC  int64 // PC after the block (not-taken / fall-through successor)
	takenPC int64 // terminator's static target, or -1 (RET, JR, HALT)

	// Chained successors, resolved lazily on first dispatch.
	fall  *block
	taken *block

	// Tier-1 promotion state. count rises on each tier-0 dispatch until
	// it reaches the promotion threshold; fallSeen/takenSeen record the
	// observed successor bias that steers superblock stitching. sb is the
	// promoted trace headed by this block; noSB pins the block to tier 0
	// (specialization bailed, or the trace was demoted for side-exiting).
	count     uint32
	fallSeen  uint32
	takenSeen uint32
	noSB      bool
	sb        *superblock
}

// BlockCacheStats counts cache traffic. A dispatch is served either by a
// chained successor pointer (Chained), an entry-PC table hit (Hits), or a
// decode (Misses). Evicted counts blocks discarded by invalidation.
type BlockCacheStats struct {
	Hits    uint64
	Chained uint64
	Misses  uint64
	Evicted uint64
}

// HitRate returns the fraction of block dispatches that did not decode.
func (s BlockCacheStats) HitRate() float64 {
	total := s.Hits + s.Chained + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Chained) / float64(total)
}

// BlockCache holds the decoded blocks of one image, keyed by entry PC.
// It is not safe for concurrent use; give each concurrent timed run its
// own cache (they are cheap — decode is lazy and aliases the image).
type BlockCache struct {
	img    *prog.Image
	blocks []*block
	Stats  BlockCacheStats
	SB     SuperblockStats
}

// NewBlockCache returns an empty cache bound to img.
func NewBlockCache(img *prog.Image) *BlockCache {
	return &BlockCache{img: img, blocks: make([]*block, len(img.Code))}
}

// Bind points the cache at img, applying the invalidation-on-install
// rule: binding to a different image evicts every decoded block (counted
// in Stats.Evicted). Re-binding to the same image keeps all entries —
// that is what makes repeated timed runs of one image cheap.
func (c *BlockCache) Bind(img *prog.Image) {
	if c.img == img {
		return
	}
	c.Invalidate()
	c.img = img
	c.blocks = make([]*block, len(img.Code))
}

// Invalidate evicts every decoded block, keeping the image binding.
func (c *BlockCache) Invalidate() {
	for i, b := range c.blocks {
		if b != nil {
			c.Stats.Evicted++
			c.blocks[i] = nil
		}
	}
}

// Len reports how many blocks are currently decoded.
func (c *BlockCache) Len() int {
	n := 0
	for _, b := range c.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// lookup returns the block entered at pc, decoding it on first visit.
// The caller has bounds-checked pc against the image.
func (c *BlockCache) lookup(pc int64) *block {
	if b := c.blocks[pc]; b != nil {
		c.Stats.Hits++
		return b
	}
	c.Stats.Misses++
	b := c.decode(pc)
	c.blocks[pc] = b
	return b
}

// decode scans the straight-line run starting at entry and builds its
// block record. Blocks are keyed by entry PC, so runs entered mid-way
// (e.g. a return landing after a call slot) simply decode their own,
// overlapping record.
func (c *BlockCache) decode(entry int64) *block {
	code := c.img.Code
	end := entry
	hasTerm := false
	for end < int64(len(code)) {
		op := code[end].Op
		end++
		if isa.Meta[op].IsControl {
			hasTerm = true
			break
		}
	}
	b := &block{
		entry:   entry,
		insts:   code[entry:end],
		slots:   make([]slotInfo, end-entry),
		hasTerm: hasTerm,
		fallPC:  end,
		takenPC: -1,
	}
	for j := range b.insts {
		in := &b.insts[j]
		meta := &isa.Meta[in.Op]
		var f uint8
		if meta.HasRs1 && in.Rs1 != isa.R0 {
			f |= slotNeedRs1
		}
		if meta.HasRs2 && in.Rs2 != isa.R0 {
			f |= slotNeedRs2
		}
		if meta.HasRd && in.Rd != isa.R0 {
			f |= slotWritesRd
		}
		// The fetch stream inside a straight-line run is strictly
		// ascending, so a new I-line begins exactly at slot addresses
		// divisible by the line width (8 slots of 8 bytes per 64-byte
		// line). The entry slot is excluded: the block may be entered
		// on the line fetch is already on, so it compares at run time.
		if j > 0 && (entry+int64(j))&7 == 0 {
			f |= slotNewLine
		}
		b.slots[j] = slotInfo{fu: meta.FU, lat: meta.Latency, flags: f}
		if blk := c.img.AddrBlock[entry+int64(j)]; blk != nil && blk.Fn.IsPackage {
			b.pkgN++
		}
	}
	if hasTerm {
		switch term := &b.insts[len(b.insts)-1]; term.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.JMP, isa.CALL:
			b.takenPC = term.Target
		}
	}
	return b
}

// runBlocks is the two-tier block-dispatch loop. Tier 0 executes one
// decoded block at a time through execBlock, chasing chained successor
// pointers when the next PC matches the block's fall-through or taken
// target and falling back to a table lookup otherwise. Blocks dispatched
// often enough are promoted into superblock traces (tier 1, see
// superblock.go) and thereafter run through the specialized trace
// executor, which returns control here at the trace's exit block. Both
// tiers classify dispatches identically into BlockCacheStats.
func (t *timing) runBlocks(m *Machine, bc *BlockCache) error {
	n := int64(len(m.Img.Code))
	pc := m.PC
	if uint64(pc) >= uint64(n) {
		return fmt.Errorf("cpu: PC %d outside code image (len %d)", pc, n)
	}
	sbOn := !t.cfg.DisableSuperblocks
	thresh := uint32(DefaultSuperblockThreshold)
	if t.cfg.SuperblockThreshold > 0 {
		thresh = uint32(t.cfg.SuperblockThreshold)
	}
	b := bc.lookup(pc)
	for {
		var next int64
		var err error
		if sbOn && b.sb != nil {
			next, b, err = t.execSuper(m, bc, b.sb)
		} else {
			if sbOn && !b.noSB && b.count < thresh {
				b.count++
				if b.count == thresh {
					if sb := bc.promote(b); sb != nil {
						next, b, err = t.execSuper(m, bc, sb)
						goto dispatched
					}
				}
			}
			next, err = t.execBlock(m, b)
		}
	dispatched:
		if err != nil {
			return err
		}
		if m.Halted {
			return nil
		}
		switch next {
		case b.fallPC:
			b.fallSeen++
			if nb := b.fall; nb != nil {
				bc.Stats.Chained++
				b = nb
				continue
			}
			if uint64(next) >= uint64(n) {
				return fmt.Errorf("cpu: PC %d outside code image (len %d)", next, n)
			}
			b.fall = bc.lookup(next)
			b = b.fall
		case b.takenPC:
			b.takenSeen++
			if nb := b.taken; nb != nil {
				bc.Stats.Chained++
				b = nb
				continue
			}
			if uint64(next) >= uint64(n) {
				return fmt.Errorf("cpu: PC %d outside code image (len %d)", next, n)
			}
			b.taken = bc.lookup(next)
			b = b.taken
		default:
			// Dynamic target (RET, JR): no chain slot, table lookup.
			if uint64(next) >= uint64(n) {
				return fmt.Errorf("cpu: PC %d outside code image (len %d)", next, n)
			}
			b = bc.lookup(next)
		}
	}
}

// blockFault restores the per-instruction invariants the legacy loop would
// leave behind after a fault at slot j — retired counts for the j slots
// that completed, PC parked on the faulting instruction — so diagnostics
// and partial machine state agree between the two paths.
func (t *timing) blockFault(m *Machine, b *block, j int, err error) error {
	t.Stats.Insts += uint64(j)
	m.InstCount += uint64(j)
	m.PC = b.entry + int64(j)
	return err
}

// execBlock retires every instruction of b — functional execution and
// cycle accounting fused in one pass — and returns the next PC. It is the
// batched equivalent of Machine.exec + timing.observe per slot. ALU, FP
// and branch results come from internal/isa; a change to memory, control
// transfer or timing here must be mirrored there (and vice versa), which
// TestBlockCacheEquivalence enforces over the whole workload suite.
func (t *timing) execBlock(m *Machine, b *block) (int64, error) {
	insts := b.insts
	slots := b.slots
	entry := b.entry
	n := len(insts)
	straight := n
	if b.hasTerm {
		straight--
	}

	// Entry fetch: the block may begin mid-line (fall-through, or a jump
	// back into the line fetch is already on), so compare lines here; the
	// per-slot slotNewLine marks cover the rest of the run.
	if line := entry >> 3; line != t.lastLine {
		t.lineFetch(entry)
	}

	for j := 0; j < straight; j++ {
		in := &insts[j]
		si := slots[j]
		pc := entry + int64(j)

		if si.flags&slotNewLine != 0 {
			t.lineFetch(pc)
		}

		// Earliest issue cycle: fetch availability and operand readiness.
		earliest := t.cycle
		if t.fetchReady > earliest {
			earliest = t.fetchReady
		}
		var opndReady uint64
		if si.flags&slotNeedRs1 != 0 {
			opndReady = t.regReady[in.Rs1&63]
		}
		if si.flags&slotNeedRs2 != 0 && t.regReady[in.Rs2&63] > opndReady {
			opndReady = t.regReady[in.Rs2&63]
		}
		if opndReady > earliest {
			t.Stats.RAWStalls += opndReady - earliest
			earliest = opndReady
		}
		if earliest > t.cycle {
			t.advanceTo(earliest)
		}
		need, hi := issueNeed(si.fu), issueHigh(si.fu)
		f2 := t.free - need
		for f2&hi != hi {
			t.nextCycle()
			f2 = t.free - need
		}
		t.free = f2
		issue := t.cycle

		lat := int(si.lat)
		switch in.Op {
		case isa.NOP:
		case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR,
			isa.XOR, isa.SHL, isa.SHR, isa.SLT, isa.SEQ:
			m.seti(in.Rd, isa.EvalInt(in.Op, m.geti(in.Rs1), m.geti(in.Rs2)))
		case isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SLTI:
			m.seti(in.Rd, isa.EvalInt(in.Op, m.geti(in.Rs1), in.Imm))
		case isa.LI:
			m.seti(in.Rd, in.Imm)

		case isa.LD:
			addr := m.geti(in.Rs1) + in.Imm
			v, err := m.Mem.Load(addr)
			if err != nil {
				return 0, t.blockFault(m, b, j, fmt.Errorf("cpu: pc %d: %w", pc, err))
			}
			m.seti(in.Rd, v)
			lat = t.dLatency(addr)
		case isa.ST:
			addr := m.geti(in.Rs1) + in.Imm
			if err := m.Mem.Store(addr, m.geti(in.Rs2)); err != nil {
				return 0, t.blockFault(m, b, j, fmt.Errorf("cpu: pc %d: %w", pc, err))
			}
			m.hashStore(addr, m.geti(in.Rs2))
			t.dLatency(addr) // stores touch the cache; latency hidden

		case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
			m.setf(in.Rd, isa.EvalFP(in.Op, m.getf(in.Rs1), m.getf(in.Rs2)))
		case isa.FSLT:
			m.seti(in.Rd, isa.FSlt(m.getf(in.Rs1), m.getf(in.Rs2)))
		case isa.FCVTIF:
			m.setf(in.Rd, float64(m.geti(in.Rs1)))
		case isa.FCVTFI:
			m.seti(in.Rd, int64(m.getf(in.Rs1)))
		case isa.FLD:
			addr := m.geti(in.Rs1) + in.Imm
			v, err := m.Mem.Load(addr)
			if err != nil {
				return 0, t.blockFault(m, b, j, fmt.Errorf("cpu: pc %d: %w", pc, err))
			}
			m.setf(in.Rd, math.Float64frombits(uint64(v)))
			lat = t.dLatency(addr)
		case isa.FST:
			addr := m.geti(in.Rs1) + in.Imm
			bits := int64(math.Float64bits(m.getf(in.Rs2)))
			if err := m.Mem.Store(addr, bits); err != nil {
				return 0, t.blockFault(m, b, j, fmt.Errorf("cpu: pc %d: %w", pc, err))
			}
			m.hashStore(addr, bits)
			t.dLatency(addr)

		case isa.LA:
			m.seti(in.Rd, in.Target)
		default:
			return 0, t.blockFault(m, b, j, fmt.Errorf("cpu: pc %d: invalid opcode %v", pc, in.Op))
		}

		if si.flags&slotWritesRd != 0 {
			if ready := issue + uint64(lat); t.regReady[in.Rd&63] < ready {
				t.regReady[in.Rd&63] = ready
			}
		}
	}

	next := b.fallPC
	if b.hasTerm {
		j := n - 1
		in := &insts[j]
		si := slots[j]
		pc := entry + int64(j)
		op := in.Op

		if si.flags&slotNewLine != 0 {
			t.lineFetch(pc)
		}

		earliest := t.cycle
		if t.fetchReady > earliest {
			earliest = t.fetchReady
		}
		var opndReady uint64
		if si.flags&slotNeedRs1 != 0 {
			opndReady = t.regReady[in.Rs1&63]
		}
		if si.flags&slotNeedRs2 != 0 && t.regReady[in.Rs2&63] > opndReady {
			opndReady = t.regReady[in.Rs2&63]
		}
		if op == isa.RET && t.regReady[isa.RRA] > opndReady {
			opndReady = t.regReady[isa.RRA]
		}
		if opndReady > earliest {
			t.Stats.RAWStalls += opndReady - earliest
			earliest = opndReady
		}
		if earliest > t.cycle {
			t.advanceTo(earliest)
		}
		need, hi := issueNeed(si.fu), issueHigh(si.fu)
		f2 := t.free - need
		for f2&hi != hi {
			t.nextCycle()
			f2 = t.free - need
		}
		t.free = f2
		issue := t.cycle

		taken := false
		switch op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			if taken = isa.Taken(op, m.geti(in.Rs1), m.geti(in.Rs2)); taken {
				next = in.Target
			}
		case isa.JMP:
			taken = true
			next = in.Target
		case isa.CALL:
			taken = true
			m.seti(isa.RRA, pc+1)
			next = in.Target
		case isa.RET:
			taken = true
			next = m.geti(isa.RRA)
		case isa.JR:
			taken = true
			next = m.geti(in.Rs1)
		case isa.HALT:
			m.Halted = true
		default:
			return 0, t.blockFault(m, b, j, fmt.Errorf("cpu: pc %d: invalid opcode %v", pc, op))
		}
		if op == isa.CALL {
			// CALL implicitly defines RRA.
			if ready := issue + uint64(si.lat); t.regReady[isa.RRA] < ready {
				t.regReady[isa.RRA] = ready
			}
		}

		t.resolve(op, pc, next, taken, issue, m.InstCount+uint64(n))
	}

	// Batched per-block accounting: the per-instruction counters are not
	// observable mid-block, so one add per block is equivalent.
	t.Stats.Insts += uint64(n)
	t.Stats.PackageInsts += b.pkgN
	m.InstCount += uint64(n)
	m.PC = next
	return next, nil
}
