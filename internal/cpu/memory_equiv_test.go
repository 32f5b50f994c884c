package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// newPagedMachine builds a machine whose memory is forced through the
// legacy paged path for every access, bypassing the dense data/stack fast
// paths and the one-entry page cache's dense windows.
func newPagedMachine(img *prog.Image) *Machine {
	m := &Machine{Img: img, Mem: NewMemory(), PC: img.Entry}
	m.Mem.noFast = true
	for i, v := range img.Prog.Data {
		if err := m.Mem.Store(prog.DataBase+int64(i)*8, v); err != nil {
			panic(err)
		}
	}
	m.IntRegs[isa.RSP] = prog.StackBase
	m.dataHash = fnv64offset
	return m
}

// TestMemoryFastPathEquivalence proves the dense fast-path memory retires
// the same architectural state as the paged implementation: every workload
// runs to completion under both and must agree on registers, instruction
// count, and the data-segment store hash.
func TestMemoryFastPathEquivalence(t *testing.T) {
	for _, bench := range workload.Ordered() {
		in := bench.Inputs[0]
		in.Scale = 1
		img, err := bench.Build(in).Linearize()
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}

		fast := NewMachine(img)
		if err := fast.Run(0, nil); err != nil {
			t.Fatalf("%s: fast run: %v", bench.Name, err)
		}
		paged := newPagedMachine(img)
		if err := paged.Run(0, nil); err != nil {
			t.Fatalf("%s: paged run: %v", bench.Name, err)
		}

		if fast.InstCount != paged.InstCount {
			t.Errorf("%s: InstCount %d vs %d", bench.Name, fast.InstCount, paged.InstCount)
		}
		if fast.IntRegs != paged.IntRegs {
			t.Errorf("%s: integer register files disagree", bench.Name)
		}
		if fast.FPRegs != paged.FPRegs {
			t.Errorf("%s: FP register files disagree", bench.Name)
		}
		fh, fn := fast.DataHash()
		ph, pn := paged.DataHash()
		if fh != ph || fn != pn {
			t.Errorf("%s: data hash %#x/%d vs %#x/%d", bench.Name, fh, fn, ph, pn)
		}
	}
}

// TestMemoryFastPathRandomAccess drives both implementations with an
// identical pseudo-random mix of loads and stores across the data, stack,
// scratch and far-sparse regions and checks every observed value.
func TestMemoryFastPathRandomAccess(t *testing.T) {
	fast := NewMemory()
	paged := NewMemory()
	paged.noFast = true

	regions := []int64{
		prog.DataBase,                       // dense data window
		prog.DataBase + maxDenseDataWords*8, // just past the dense cap
		prog.StackBase - 8,                  // dense stack window (grows down)
		prog.ScratchBase,                    // paged scratch
		1 << 40,                             // far sparse page
		0,                                   // low memory, below DataBase
	}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 200_000; i++ {
		r := regions[next()%uint64(len(regions))]
		off := int64(next()%8192) * 8
		addr := r + off
		if r == prog.StackBase-8 {
			addr = r - off // stack accesses go downward
		}
		if next()&1 == 0 {
			val := int64(next())
			ef := fast.Store(addr, val)
			ep := paged.Store(addr, val)
			if (ef == nil) != (ep == nil) {
				t.Fatalf("store %#x: error mismatch %v vs %v", addr, ef, ep)
			}
		} else {
			vf, ef := fast.Load(addr)
			vp, ep := paged.Load(addr)
			if vf != vp || (ef == nil) != (ep == nil) {
				t.Fatalf("load %#x: %d/%v vs %d/%v", addr, vf, ef, vp, ep)
			}
		}
	}
}

// TestSameEffectsAcrossMemoryLayouts: SameEffects compares data segments
// whether their words live in the dense window or in pages, and sees a
// differing word on either side.
func TestSameEffectsAcrossMemoryLayouts(t *testing.T) {
	img := mustAssemble(t, `
.data 1 2 3
.func main
.main
  li r1, 1048576
  li r2, 5
  st r2, 8(r1)
  halt
`)
	fast, paged := NewMachine(img), newPagedMachine(img)
	if err := fast.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := paged.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if !fast.SameEffects(paged) || !paged.SameEffects(fast) {
		t.Fatal("identical runs on dense and paged memory differ")
	}
	// Same store count, different hash: the contents decide.
	paged.dataHash++
	if !fast.SameEffects(paged) {
		t.Error("equal data segments with differing hashes reported different")
	}
	for _, m := range []*Machine{fast, paged} {
		if err := m.Mem.Store(prog.DataBase+16, 4); err != nil {
			t.Fatal(err)
		}
		other := paged
		if m == paged {
			other = fast
		}
		if m.SameEffects(other) || other.SameEffects(m) {
			t.Error("a differing data word went unnoticed")
		}
		if err := m.Mem.Store(prog.DataBase+16, 3); err != nil {
			t.Fatal(err)
		}
	}
}
