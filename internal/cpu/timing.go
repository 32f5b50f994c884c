package cpu

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// Config holds the machine-model parameters. DefaultConfig mirrors Table 2
// of the paper.
type Config struct {
	IssueWidth  int
	IntALUs     int
	FPUnits     int
	MemUnits    int
	BranchUnits int

	L1DSizeBytes int
	L1ISizeBytes int
	L2SizeBytes  int
	CacheWays    int

	L2Latency  int // extra cycles on an L1 miss that hits L2
	MemLatency int // extra cycles on an L2 miss

	BranchResolution int // pipeline depth from fetch to branch resolve
	GshareBits       uint
	BTBEntries       int
	RASEntries       int

	// FetchLineSlots is how many instruction slots share an I-cache line
	// (64-byte lines of 8-byte slots).
	FetchLineSlots int

	// DisableBlockCache forces RunTimed onto the legacy
	// instruction-at-a-time loop instead of the block-structured path
	// (see blockcache.go). The two are bit-identical; this is an escape
	// hatch for debugging and for A/B-testing the cache itself.
	DisableBlockCache bool

	// DisableSuperblocks keeps the block-structured path on tier 0
	// (one basic block per dispatch) instead of promoting hot blocks
	// into specialized superblock traces (see superblock.go). All three
	// paths — legacy, tier 0, tier 1 — are bit-identical.
	DisableSuperblocks bool

	// SuperblockThreshold is the number of tier-0 dispatches after which
	// a block is promoted into a superblock trace; 0 means
	// DefaultSuperblockThreshold.
	SuperblockThreshold int
}

// DefaultConfig returns the paper's Table 2 machine model.
func DefaultConfig() Config {
	return Config{
		IssueWidth:  8,
		IntALUs:     5,
		FPUnits:     3,
		MemUnits:    3,
		BranchUnits: 3,

		L1DSizeBytes: 64 << 10,
		L1ISizeBytes: 512 << 10,
		L2SizeBytes:  64 << 10,
		CacheWays:    4,

		L2Latency:  10,
		MemLatency: 80,

		BranchResolution: 7,
		GshareBits:       10,
		BTBEntries:       1024,
		RASEntries:       32,

		FetchLineSlots: 8,
	}
}

// TimingStats aggregates one timed run.
type TimingStats struct {
	Cycles       uint64
	Insts        uint64
	PackageInsts uint64 // instructions retired from package code

	CondBranches   uint64
	CondMispredict uint64
	BTBMisses      uint64
	RASMisses      uint64

	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64

	FetchBreaks uint64 // taken transfers that ended a fetch packet
	RAWStalls   uint64 // cycles lost waiting on operands (approximate)
}

// IPC returns retired instructions per cycle.
func (s TimingStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// PackageCoverage returns the fraction of dynamic instructions retired
// from package code.
func (s TimingStats) PackageCoverage() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.PackageInsts) / float64(s.Insts)
}

// timing is the cycle-level model. It consumes the functional machine's
// retirement stream in program order and accounts:
//
//   - in-order issue of at most IssueWidth instructions per cycle, limited
//     by per-class functional units,
//   - register scoreboarding (an instruction cannot issue before its
//     operands' producing latencies have elapsed),
//   - fetch-packet breaks at taken control transfers, I-cache misses at
//     line boundaries, and
//   - branch resolution: a mispredicted conditional branch, a BTB-missing
//     taken transfer or a RAS-missing return redirects fetch
//     BranchResolution cycles after the transfer issued.
//
// The model is a faithful accounting abstraction of the paper's ten-stage
// EPIC pipeline rather than a structural register-transfer simulation; it
// rewards exactly the behaviors the paper's optimizations target: packed
// issue slots, fall-through layout and phase-local instruction footprints.
type timing struct {
	cfg  Config
	pred *Predictor
	l1i  *Cache
	l1d  *Cache
	l2   *Cache

	cycle uint64

	// Packed per-cycle issue state: one byte per FU class (bytes 0..4,
	// indexed by isa.FUClass), byte 7 the issue-width budget; bytes 5-6
	// are unused and never limit. Each byte holds 0x80|remaining, so
	// issuing one instruction is a single uint64 subtraction and the
	// cycle is full for that class exactly when a high bit clears.
	// freeInit is the per-cycle refill value derived from the config
	// (per-class capacities clamped to 126, far above any real model).
	free     uint64
	freeInit uint64

	// regReady is sized to a power of two so hot loops can index it with
	// a mask instead of a bounds check; entries past isa.NumRegs stay 0.
	regReady   [64]uint64
	fetchReady uint64 // earliest cycle the next instruction can issue
	lastLine   int64

	inPkg []bool

	// sink, when non-nil, receives every retired conditional branch.
	sink BranchSink

	Stats TimingStats
}

// BranchSink receives each retired conditional branch of a timed run, in
// retirement order: its PC, whether it was taken, and the number of
// instructions retired so far, the branch included. That is exactly the
// event stream the paper's Hot Spot Detector watches (§3.1), so a
// profiling run is an ordinary timed run with a sink attached.
type BranchSink func(pc int64, taken bool, insts uint64)

// newTiming builds a timing model for an image. Instructions belonging to
// package functions are identified up front for coverage accounting.
func newTiming(cfg Config, img *prog.Image) *timing {
	t := &timing{
		cfg:      cfg,
		pred:     NewPredictor(cfg.GshareBits, cfg.BTBEntries, cfg.RASEntries),
		l1i:      NewCache("L1I", cfg.L1ISizeBytes, cfg.CacheWays),
		l1d:      NewCache("L1D", cfg.L1DSizeBytes, cfg.CacheWays),
		l2:       NewCache("L2", cfg.L2SizeBytes, cfg.CacheWays),
		lastLine: -1,
		inPkg:    make([]bool, len(img.Code)),
	}
	t.freeInit = packIssueInit(cfg)
	t.free = t.freeInit
	for addr, b := range img.AddrBlock {
		if b != nil && b.Fn.IsPackage {
			t.inPkg[addr] = true
		}
	}
	return t
}

// issueWidthShift is the bit position of the issue-width byte in the
// packed issue word.
const issueWidthShift = 56

// packIssueInit builds the per-cycle refill value for the packed issue
// state: 0x80|capacity in each FU byte and the width byte, 0x80|0x7e in
// the FUNone and unused bytes so they never limit. Capacities clamp to
// [0, 126]; a zero capacity stalls the class forever, exactly like the
// old fuLimit==0 behavior.
func packIssueInit(cfg Config) uint64 {
	pack := func(v int) uint64 {
		if v < 0 {
			v = 0
		}
		if v > 0x7e {
			v = 0x7e
		}
		return uint64(v)
	}
	return 0x8080808080808080 |
		0x7e | // FUNone: consumes an issue slot but no unit
		pack(cfg.IntALUs)<<(8*uint(isa.FUIALU)) |
		pack(cfg.FPUnits)<<(8*uint(isa.FUFP)) |
		pack(cfg.MemUnits)<<(8*uint(isa.FUMem)) |
		pack(cfg.BranchUnits)<<(8*uint(isa.FUBranch)) |
		0x7e<<40 | 0x7e<<48 | // unused bytes
		pack(cfg.IssueWidth)<<issueWidthShift
}

// issueNeed and issueHigh are the subtract mask and high-bit mask for
// issuing one instruction of FU class fu: one count from the class byte
// and one from the width byte.
func issueNeed(fu isa.FUClass) uint64 {
	return 1<<(8*uint(fu)) | 1<<issueWidthShift
}

func issueHigh(fu isa.FUClass) uint64 {
	return 0x80<<(8*uint(fu)) | 0x80<<issueWidthShift
}

// nextCycle advances to a fresh issue cycle.
func (t *timing) nextCycle() {
	t.cycle++
	t.free = t.freeInit
}

// advanceTo jumps the issue clock to cycle c (> current).
func (t *timing) advanceTo(c uint64) {
	t.cycle = c
	t.free = t.freeInit
}

// lineFetch charges the I-cache hierarchy for fetch crossing onto the
// line holding pc and delays fetchReady on a miss. The caller has decided
// the crossing happened (statically via slotNewLine / superblock stitch
// marks, or by comparing against lastLine at a block entry).
func (t *timing) lineFetch(pc int64) {
	t.fetchReady = t.lineFetchAt(pc, t.cycle, t.fetchReady)
}

// lineFetchAt is lineFetch for callers that keep cycle and fetchReady in
// locals (the superblock executor); it returns the updated fetchReady.
func (t *timing) lineFetchAt(pc int64, cycle, fetchReady uint64) uint64 {
	t.lastLine = pc >> 3
	if !t.l1i.Access(pc * 8) {
		extra := t.cfg.L2Latency
		if !t.l2.Access(pc * 8) {
			extra += t.cfg.MemLatency
		}
		if c := cycle + uint64(extra); fetchReady < c {
			fetchReady = c
		}
	}
	return fetchReady
}

// dLatency models a data access through the cache hierarchy and returns
// the total load-use latency.
func (t *timing) dLatency(addr int64) int {
	lat := isa.LD.Latency()
	if t.l1d.Access(addr) {
		return lat
	}
	lat += t.cfg.L2Latency
	if t.l2.Access(addr) {
		return lat
	}
	return lat + t.cfg.MemLatency
}

// observe accounts one retired instruction. Call it in retirement order.
// Per-opcode properties come from the flat isa.Meta table — one load per
// instruction instead of a method call per property.
func (t *timing) observe(info *StepInfo) {
	in := info.Inst
	op := in.Op
	meta := &isa.Meta[op]

	// Fetch: line-crossing I-cache charge.
	if info.PC>>3 != t.lastLine {
		t.lineFetch(info.PC)
	}

	// Earliest issue cycle: fetch availability and operand readiness.
	earliest := t.cycle
	if t.fetchReady > earliest {
		earliest = t.fetchReady
	}
	var opndReady uint64
	if meta.HasRs1 && in.Rs1 != isa.R0 && t.regReady[in.Rs1&63] > opndReady {
		opndReady = t.regReady[in.Rs1&63]
	}
	if meta.HasRs2 && in.Rs2 != isa.R0 && t.regReady[in.Rs2&63] > opndReady {
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
	// Resource constraints: issue width and FU availability.
	need, hi := issueNeed(meta.FU), issueHigh(meta.FU)
	f2 := t.free - need
	for f2&hi != hi {
		t.nextCycle()
		f2 = t.free - need
	}
	t.free = f2
	issueCycle := t.cycle

	// Result latency.
	lat := int(meta.Latency)
	if op == isa.LD || op == isa.FLD {
		lat = t.dLatency(info.MemAddr)
	} else if op == isa.ST || op == isa.FST {
		t.dLatency(info.MemAddr) // stores touch the cache; latency hidden
		lat = 1
	}
	if op == isa.CALL {
		// CALL implicitly defines RRA (see Inst.Defs).
		ready := issueCycle + uint64(lat)
		if t.regReady[isa.RRA] < ready {
			t.regReady[isa.RRA] = ready
		}
	} else if meta.HasRd && in.Rd != isa.R0 {
		ready := issueCycle + uint64(lat)
		if t.regReady[in.Rd&63] < ready {
			t.regReady[in.Rd&63] = ready
		}
	}

	if meta.IsControl {
		t.resolve(op, info.PC, info.NextPC, info.Taken, issueCycle, t.Stats.Insts+1)
	}

	t.Stats.Insts++
	if t.inPkg[info.PC] {
		t.Stats.PackageInsts++
	}
}

// resolve accounts one retired control transfer that issued in cycle
// issue: prediction (gshare for conditional branches, the BTB for taken
// direct and indirect transfers, the RAS for returns) and then either a
// fetch redirect BranchResolution cycles later on a misprediction or a
// fetch-packet break on a correctly predicted taken transfer. next is the
// actual next PC; insts is the retired count including this transfer,
// handed to the branch sink for conditional branches.
func (t *timing) resolve(op isa.Opcode, pc, next int64, taken bool, issue, insts uint64) {
	redirect := false
	switch op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		t.Stats.CondBranches++
		if t.sink != nil {
			t.sink(pc, taken, insts)
		}
		redirect = !t.pred.PredictCond(pc, taken) || taken && !t.pred.LookupBTB(pc, next)
	case isa.CALL:
		t.pred.PushRAS(pc + 1)
		redirect = !t.pred.LookupBTB(pc, next)
	case isa.RET:
		redirect = !t.pred.PopRAS(next)
	case isa.JMP, isa.JR:
		// Indirect jumps predict through the BTB too: the paper's
		// dynamic launch-point alternative pays a redirect when the
		// target changes (i.e. at phase transitions).
		redirect = !t.pred.LookupBTB(pc, next)
	default: // HALT
		return
	}
	if redirect {
		// Fetch restarts after the branch resolves.
		if c := issue + uint64(t.cfg.BranchResolution); t.fetchReady < c {
			t.fetchReady = c
		}
	} else if taken {
		// A correctly predicted taken transfer still ends the fetch
		// packet: following instructions issue next cycle at best.
		t.Stats.FetchBreaks++
		if t.fetchReady < issue+1 {
			t.fetchReady = issue + 1
		}
	}
}

// finish freezes and returns the statistics.
func (t *timing) finish() TimingStats {
	s := t.Stats
	s.Cycles = t.cycle + 1
	s.CondMispredict = t.pred.CondMispredict
	s.BTBMisses = t.pred.BTBMisses
	s.RASMisses = t.pred.RASMisses
	s.L1IAccesses, s.L1IMisses = t.l1i.Accesses, t.l1i.Misses
	s.L1DAccesses, s.L1DMisses = t.l1d.Accesses, t.l1d.Misses
	s.L2Accesses, s.L2Misses = t.l2.Accesses, t.l2.Misses
	return s
}

// RunTimed runs the program to completion on a fresh machine under this
// timing model and returns the statistics. limit bounds retired
// instructions (0 = unlimited). It dispatches through a private, run-local
// block cache; use RunTimedCached to share decoded blocks across repeated
// runs of the same image.
func RunTimed(cfg Config, img *prog.Image, limit uint64) (TimingStats, *Machine, error) {
	return RunTimedCached(cfg, img, limit, nil)
}

// RunTimedCached is RunTimed with an explicit block cache. A nil bc gets a
// fresh cache; a non-nil bc is re-bound to img (evicting its decoded
// blocks if it was bound to a different image — the invalidation-on-
// install rule) and keeps its entries otherwise, making repeated timed
// runs of one image skip decode entirely.
func RunTimedCached(cfg Config, img *prog.Image, limit uint64, bc *BlockCache) (TimingStats, *Machine, error) {
	return RunTimedSink(cfg, img, limit, bc, nil)
}

// RunTimedSink is RunTimedCached feeding every retired conditional branch
// to sink (nil for none). All three execution paths — tier-0 blocks,
// tier-1 superblock guards and exits, and the instruction-at-a-time
// oracle — deliver the identical branch stream.
//
// The oracle loop is used when the config disables the cache or when
// limit > 0 (the limit must be checked per instruction, not per block;
// limits are only used for runaway-guard runs, never on the measured
// suite path).
func RunTimedSink(cfg Config, img *prog.Image, limit uint64, bc *BlockCache, sink BranchSink) (TimingStats, *Machine, error) {
	m := NewMachine(img)
	t := newTiming(cfg, img)
	t.sink = sink
	if cfg.DisableBlockCache || limit > 0 {
		// The reference oracle: the functional machine retiring one
		// instruction at a time into the per-instruction timing model,
		// observe's only caller.
		if err := m.Run(limit, t.observe); err != nil {
			return TimingStats{}, m, err
		}
		return t.finish(), m, nil
	}
	if bc == nil {
		bc = NewBlockCache(img)
	} else {
		bc.Bind(img)
	}
	if err := t.runBlocks(m, bc); err != nil {
		return TimingStats{}, m, err
	}
	return t.finish(), m, nil
}
