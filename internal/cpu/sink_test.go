package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// branchStream digests a conditional-branch retire stream: its length
// and an order-sensitive hash of every (pc, taken, insts) event.
type branchStream struct {
	n    uint64
	hash uint64
}

func (s *branchStream) add(pc int64, taken bool, insts uint64) {
	var bit uint64
	if taken {
		bit = 1
	}
	h := mix64(s.hash ^ uint64(pc))
	h = mix64(h ^ bit)
	s.hash = mix64(h ^ insts)
	s.n++
}

// functionalBranches is the reference stream: the functional machine's
// retirement order, filtered to conditional branches, with the retired
// count read after each branch retires.
func functionalBranches(t *testing.T, img *prog.Image, limit uint64) (branchStream, error) {
	t.Helper()
	var s branchStream
	m := NewMachine(img)
	err := m.Run(limit, func(si *StepInfo) {
		if isa.Meta[si.Inst.Op].IsCondBranch {
			s.add(si.PC, si.Taken, m.InstCount)
		}
	})
	return s, err
}

// sinkEngines are the timed-engine settings the sink must agree across:
// the oracle loop, tier 0 alone, tier 1 at the default threshold, and
// tier 1 promoting almost immediately (so guards, side exits and
// internal loop-backs all carry branches).
func sinkEngines() map[string]Config {
	oracle := DefaultConfig()
	oracle.DisableBlockCache = true
	tier0 := DefaultConfig()
	tier0.DisableSuperblocks = true
	eager := DefaultConfig()
	eager.SuperblockThreshold = 2
	return map[string]Config{"oracle": oracle, "tier0": tier0, "tier1": DefaultConfig(), "tier1-eager": eager}
}

// checkSink runs img on every engine with a sink attached and requires
// the functional reference stream, and TimingStats identical to a run
// without a sink.
func checkSink(t *testing.T, img *prog.Image) {
	t.Helper()
	want, err := functionalBranches(t, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.n == 0 {
		t.Fatal("reference run retired no conditional branches")
	}
	for name, cfg := range sinkEngines() {
		var got branchStream
		st, _, err := RunTimedSink(cfg, img, 0, nil, got.add)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: sink saw %d branches (hash %#x), functional reference %d (hash %#x)",
				name, got.n, got.hash, want.n, want.hash)
		}
		plain, _, err := RunTimed(cfg, img, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st != plain {
			t.Errorf("%s: attaching a sink changed TimingStats:\n  sink:  %+v\n  plain: %+v", name, st, plain)
		}
		if st.CondBranches != got.n {
			t.Errorf("%s: CondBranches %d, sink events %d", name, st.CondBranches, got.n)
		}
	}
}

// TestBranchSinkWorkloads checks the sink on real workload inputs.
func TestBranchSinkWorkloads(t *testing.T) {
	for _, in := range []struct{ bench, input string }{
		{"gzip", "A"}, {"m88ksim", "A"}, {"perl", "B"}, {"li", "A"},
	} {
		t.Run(in.bench+"/"+in.input, func(t *testing.T) {
			b, err := workload.ByName(in.bench)
			if err != nil {
				t.Fatal(err)
			}
			wi, err := b.InputByName(in.input)
			if err != nil {
				t.Fatal(err)
			}
			wi.Scale = 1
			img, err := b.Build(wi).Linearize()
			if err != nil {
				t.Fatal(err)
			}
			checkSink(t, img)
		})
	}
}

// TestBranchSinkRandom checks the sink on generated looped programs whose
// data-dependent skips become tier-1 guards that side-exit.
func TestBranchSinkRandom(t *testing.T) {
	state := uint64(0x13198a2e03707344)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 10; i++ {
		src := genProgram(next)
		t.Run(fmt.Sprintf("prog%02d", i), func(t *testing.T) {
			checkSink(t, mustAssemble(t, src))
		})
	}
}

// TestBranchSinkLimit checks the limited (oracle) path delivers exactly
// the prefix of the stream the functional machine sees before the limit.
func TestBranchSinkLimit(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
  li r1, 0
  li r2, 1000
loop:
  addi r1, r1, 1
  blt r1, r2, loop
  halt
`)
	want, werr := functionalBranches(t, img, 500)
	var got branchStream
	_, _, err := RunTimedSink(DefaultConfig(), img, 500, nil, got.add)
	if err == nil || werr == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("limited runs: timed err %v, functional err %v; want the instruction limit", err, werr)
	}
	if got != want {
		t.Errorf("limited sink saw %d branches, functional reference %d", got.n, want.n)
	}
}
