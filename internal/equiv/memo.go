package equiv

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/prog"
)

// Proof reuse. A proof problem is a Snapshot plus the optimized package
// function it is checked against. Its canonical encoding names every field
// Prove reads and renames blocks and callees by first occurrence, so two
// problems that differ only in block IDs, pointers or names encode the
// same. The differential fuzz fallback derives concrete code addresses
// from the same numbering, which makes a certificate a pure function of
// the encoding in both regimes: a Memo can hand one problem's certificate
// to any problem with the same key.

// Key is the SHA-256 of a proof problem's canonical encoding. A
// collision-resistant hash, because a collision would accept a package
// nobody proved.
type Key [sha256.Size]byte

// canon walks a proof problem in canonical order: the Config, the entry
// list, the snapshot's blocks in capture order (view and live-in set),
// then the live function's blocks (view). Each block reference is its
// first-occurrence index plus whether it lies inside the package
// function. The walk always assigns the numbering the fuzz fallback uses;
// with enc set it also appends the encoding to buf.
type canon struct {
	fn  *prog.Func
	enc bool
	buf []byte
	// ids maps a block to index<<1 | liveBit; liveBit marks a block whose
	// live view has been encoded.
	ids   map[*prog.Block]uint32
	funcs map[*prog.Func]uint64
	// reached collects inside blocks referenced from the entry list or a
	// live view before their own live view was encoded: blocks the walker
	// can reach.
	reached []*prog.Block
}

func newCanon(s *Snapshot, cfg Config, enc bool, buf []byte) *canon {
	c := &canon{
		fn:  s.fn,
		enc: enc,
		buf: buf[:0],
		ids: make(map[*prog.Block]uint32, len(s.order)),
	}
	if enc {
		c.funcs = make(map[*prog.Func]uint64, 8)
	}
	c.uint(uint64(cfg.MaxPaths))
	c.uint(uint64(cfg.FuzzTrials))
	c.uint(uint64(cfg.FuzzSteps))
	c.uint(uint64(len(s.entries)))
	for _, b := range s.entries {
		c.ref(b, true)
	}
	c.uint(uint64(len(s.order)))
	for _, b := range s.order {
		c.ref(b, false)
		v, _ := s.refView(b)
		c.view(v, false)
		c.uint(uint64(s.liveIn[b]))
	}
	c.uint(uint64(len(s.fn.Blocks)))
	for _, b := range s.fn.Blocks {
		c.liveBlock(b)
	}
	// Normally every reachable inside block is in fn.Blocks; any that is
	// not still has its live view read by the walker, so it is keyed too.
	for i := 0; i < len(c.reached); i++ {
		if b := c.reached[i]; c.ids[b]&1 == 0 {
			c.uint(1)
			c.liveBlock(b)
		}
	}
	c.uint(0)
	return c
}

func (c *canon) liveBlock(b *prog.Block) {
	c.ref(b, false)
	c.ids[b] |= 1
	c.view(liveView(b), true)
}

func (c *canon) uint(x uint64) {
	if c.enc {
		c.buf = binary.AppendUvarint(c.buf, x)
	}
}

func (c *canon) int(x int64) {
	if c.enc {
		c.buf = binary.AppendVarint(c.buf, x)
	}
}

// index returns b's problem-local number, assigning the next one on first
// sight.
func (c *canon) index(b *prog.Block) uint32 {
	v, ok := c.ids[b]
	if !ok {
		v = uint32(len(c.ids)) << 1
		c.ids[b] = v
	}
	return v >> 1
}

// ref writes one block reference: 0 for nil, else 1 + (index<<1 | inside).
// reach marks a reference the live walker can follow.
func (c *canon) ref(b *prog.Block, reach bool) {
	if b == nil {
		c.uint(0)
		return
	}
	idx := uint64(c.index(b))
	inside := b.Fn == c.fn
	if reach && inside && c.ids[b]&1 == 0 {
		c.reached = append(c.reached, b)
	}
	if c.enc {
		x := idx << 1
		if inside {
			x |= 1
		}
		c.uint(x + 1)
	}
}

// callee writes a callee reference: 0 for nil, else 1 + its
// first-occurrence index. Prove only compares callees for identity.
func (c *canon) callee(f *prog.Func) {
	if !c.enc {
		return
	}
	if f == nil {
		c.uint(0)
		return
	}
	n, ok := c.funcs[f]
	if !ok {
		n = uint64(len(c.funcs)) + 1
		c.funcs[f] = n
	}
	c.uint(n)
}

func (c *canon) view(v view, live bool) {
	c.uint(uint64(len(v.insts)))
	for i := range v.insts {
		in := &v.insts[i]
		c.uint(uint64(in.Op))
		c.uint(uint64(in.Rd))
		c.uint(uint64(in.Rs1))
		c.uint(uint64(in.Rs2))
		c.int(in.Imm)
		c.int(in.Target)
		c.ref(in.BlockTarget, live)
	}
	c.uint(uint64(v.kind))
	c.uint(uint64(v.cmpOp))
	c.uint(uint64(v.rs1))
	c.uint(uint64(v.rs2))
	c.ref(v.taken, live)
	c.ref(v.next, live)
	c.callee(v.callee)
	c.uint(uint64(len(v.consumes)))
	for _, r := range v.consumes {
		c.uint(uint64(r))
	}
}

// problemKey returns the key of proving snap under cfg (after defaults)
// and the numbering the proof uses.
func problemKey(snap *Snapshot, cfg Config, buf []byte) (Key, *canon) {
	c := newCanon(snap, cfg, true, buf)
	return sha256.Sum256(c.buf), c
}

// Memo maps proof problems to the certificates that settled them, so a
// repack reuses every proof whose problem is byte-identical, under
// renaming, to one proved before. It keeps two generations: lookups check
// the current one, then the previous; hits and new proofs go into the
// current one; Rotate drops the older. Only Equivalent certificates are
// stored: a refutation is always recomputed, with its counterexample.
//
// The zero Memo is empty and ready to use. A Memo is not safe for
// concurrent use; a nil *Memo proves without reuse.
type Memo struct {
	cur, prev map[Key]*Certificate
	buf       []byte // encoding scratch, reused across proofs
}

// Prove is Prove through the memo. reused reports that the certificate
// came from the memo instead of a fresh proof; it then equals, field for
// field, the certificate a fresh proof would return.
func (m *Memo) Prove(snap *Snapshot, cfg Config) (cert *Certificate, reused bool, err error) {
	if m == nil {
		cert, err = Prove(snap, cfg)
		return cert, false, err
	}
	cfg = cfg.withDefaults()
	key, c := problemKey(snap, cfg, m.buf)
	m.buf = c.buf
	if m.cur == nil {
		m.cur = make(map[Key]*Certificate)
	}
	hit, ok := m.cur[key]
	if !ok {
		if hit, ok = m.prev[key]; ok {
			m.cur[key] = hit
		}
	}
	if ok {
		out := *hit
		out.Package, out.Phase = snap.name, snap.phase
		return &out, true, nil
	}
	cert, err = prove(snap, cfg, c)
	if err == nil && cert.Equivalent {
		stored := *cert
		stored.Package, stored.Phase = "", 0
		m.cur[key] = &stored
	}
	return cert, false, err
}

// Rotate starts a new generation: the current one becomes the previous
// and the older previous one is dropped.
func (m *Memo) Rotate() {
	m.prev, m.cur = m.cur, nil
}

// Len returns the number of certificates held across both generations (a
// certificate reused from the previous generation counts twice).
func (m *Memo) Len() int {
	return len(m.cur) + len(m.prev)
}
