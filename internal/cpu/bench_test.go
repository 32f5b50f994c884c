package cpu

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/workload"
)

// benchImage builds a representative workload image (mcf input A at
// scale 1) for the interpreter microbenchmarks.
func benchImage(b *testing.B) *prog.Image {
	b.Helper()
	bench, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	img, err := bench.Build(in).Linearize()
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkMachineStep measures the functional interpreter alone — the
// fused Run loop with no observer — in retired instructions per second.
func BenchmarkMachineStep(b *testing.B) {
	img := benchImage(b)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		m := NewMachine(img)
		if err := m.Run(0, nil); err != nil {
			b.Fatal(err)
		}
		total += m.InstCount
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkMachineRunTimed measures the fused functional+timing loop, the
// configuration every suite evaluation runs in.
func BenchmarkMachineRunTimed(b *testing.B) {
	img := benchImage(b)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		stats, _, err := RunTimed(DefaultConfig(), img, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkTimedTier0 measures the block-structured timed loop with
// superblocks off: every dispatch runs through tier 0's execBlock.
func BenchmarkTimedTier0(b *testing.B) {
	img := benchImage(b)
	cfg := DefaultConfig()
	cfg.DisableSuperblocks = true
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		stats, _, err := RunTimed(cfg, img, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkTimedBlock measures the block-structured timed path with a
// shared block cache — the steady state of repeated suite evaluations:
// every dispatch after the first run is a hit or a chained transition.
func BenchmarkTimedBlock(b *testing.B) {
	img := benchImage(b)
	bc := NewBlockCache(img)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		stats, _, err := RunTimedCached(DefaultConfig(), img, 0, bc)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
	b.ReportMetric(bc.Stats.HitRate(), "hit-rate")
}

// BenchmarkTimedNoCache measures the legacy instruction-at-a-time loop
// (cache disabled) — the baseline the block path is gated against.
func BenchmarkTimedNoCache(b *testing.B) {
	img := benchImage(b)
	cfg := DefaultConfig()
	cfg.DisableBlockCache = true
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		stats, _, err := RunTimed(cfg, img, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += stats.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkMemoryDense exercises the dense data-segment fast path with a
// strided read-modify-write sweep.
func BenchmarkMemoryDense(b *testing.B) {
	m := NewMemorySized(1 << 12)
	for i := 0; i < b.N; i++ {
		addr := prog.DataBase + int64(i%4096)*8
		v, _ := m.Load(addr)
		_ = m.Store(addr, v+1)
	}
}

// BenchmarkMemoryStack exercises the dense stack fast path with the
// push/pop locality pattern spill code produces.
func BenchmarkMemoryStack(b *testing.B) {
	m := NewMemory()
	for i := 0; i < b.N; i++ {
		addr := prog.StackBase - int64(i%256+1)*8
		v, _ := m.Load(addr)
		_ = m.Store(addr, v+1)
	}
}

// BenchmarkMemoryPaged exercises the paged fallback (scratch-region
// addresses outside both dense windows), including the one-entry page
// cache on its repeated-page hits.
func BenchmarkMemoryPaged(b *testing.B) {
	m := NewMemory()
	for i := 0; i < b.N; i++ {
		addr := prog.ScratchBase + int64(i%4096)*8
		v, _ := m.Load(addr)
		_ = m.Store(addr, v+1)
	}
}

// BenchmarkCacheAccess measures the set-associative lookup with the
// power-of-two mask index on a mixed hit/miss stream.
func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache("bench", 64<<10, 4)
	for i := 0; i < b.N; i++ {
		c.Access(int64(i%100_000) * 64)
	}
}

// BenchmarkTimingObserve isolates the cycle-accounting model by replaying
// a canned retirement stream through observe.
func BenchmarkTimingObserve(b *testing.B) {
	img := benchImage(b)
	// Record a window of the real retirement stream once.
	var stream []StepInfo
	m := NewMachine(img)
	if err := m.Run(200_000, func(si *StepInfo) {
		if len(stream) < 100_000 {
			stream = append(stream, *si)
		}
	}); err != nil && len(stream) < 100_000 {
		b.Fatal(err)
	}
	b.ResetTimer()
	t := newTiming(DefaultConfig(), img)
	for i := 0; i < b.N; i++ {
		t.observe(&stream[i%len(stream)])
	}
}
