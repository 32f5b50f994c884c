package vacuumpack

import (
	"fmt"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the whole pipeline purely through the public
// API, the way a downstream user would.
func TestFacadeEndToEnd(t *testing.T) {
	bench, err := Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	program := bench.Build(in)

	outcome, err := Run(ScaledConfig(), program)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := outcome.Evaluate(DefaultMachine(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Equivalent {
		t.Fatal("packed program diverged")
	}
	if ev.Coverage < 0.5 || ev.Speedup < 0.95 {
		t.Errorf("coverage %.2f speedup %.3f out of expected range", ev.Coverage, ev.Speedup)
	}
}

func TestFacadeAssembleAndMachine(t *testing.T) {
	p, err := Assemble(`
.func main
.main
  li r1, 6
  li r2, 7
  mul r3, r1, r2
  st r3, 1048576(r0)
  halt
`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img)
	if err := m.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if m.IntRegs[3] != 42 {
		t.Errorf("r3 = %d, want 42", m.IntRegs[3])
	}
	if !strings.Contains(Disassemble(p), "mul r3, r1, r2") {
		t.Error("disassembly missing instruction")
	}
	stats, _, err := RunTimed(DefaultMachine(), img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Insts != 5 {
		t.Errorf("timed insts = %d, want 5", stats.Insts)
	}
}

func TestFacadeBuilderAndDetector(t *testing.T) {
	bd := NewBuilder()
	bd.Func("main")
	bd.Main()
	bd.Halt()
	if err := bd.P.Verify(); err != nil {
		t.Fatal(err)
	}

	db := NewPhaseDB()
	det := NewDetector(DetectorConfig{
		Sets: 16, Ways: 4, CounterBits: 9, CandidateThreshold: 16,
		RefreshInterval: 256, ClearInterval: 4096, HDCBits: 8, HDCDec: 2, HDCInc: 1,
	}, func(h HotSpot) { db.Record(h) })
	for i := 0; i < 4000; i++ {
		det.Branch(64, true)
		det.Branch(72, i%3 == 0)
	}
	if len(db.Phases) != 1 {
		t.Errorf("phases = %d, want 1", len(db.Phases))
	}
}

func TestFacadeTraceBaseline(t *testing.T) {
	bench, err := Benchmark("li")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	p := bench.Build(in)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	db := NewPhaseDB()
	if _, _, err := DetectHotSpots(ScaledConfig(), DefaultMachine(), img, func(h HotSpot) { db.Record(h) }); err != nil {
		t.Fatal(err)
	}
	res, err := BuildTraces(TraceConfig{}, p, img, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) == 0 {
		t.Error("no traces built through the facade")
	}
}

func TestFacadeSuite(t *testing.T) {
	if len(Benchmarks()) != 12 {
		t.Error("suite incomplete")
	}
	if len(Variants()) != 4 {
		t.Error("variants incomplete")
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

// ExampleRun documents the happy path in godoc.
func ExampleRun() {
	bench, _ := Benchmark("m88ksim")
	in := bench.Inputs[0]
	in.Scale = 1
	outcome, err := Run(ScaledConfig(), bench.Build(in))
	if err != nil {
		fmt.Println("pipeline:", err)
		return
	}
	ev, err := outcome.Evaluate(DefaultMachine(), 0)
	if err != nil {
		fmt.Println("evaluate:", err)
		return
	}
	fmt.Println("equivalent:", ev.Equivalent)
	// Output: equivalent: true
}
