package asm

import (
	"testing"

	"repro/internal/cpu"
)

// FuzzAssemble holds the assembler and the simulator to their contract
// on arbitrary source: Assemble returns an error or a verified program,
// and a program that linearizes runs a short instruction-limited timed
// simulation that may fail but never panics. Seeds live in
// testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Add(sampleSrc)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			if p != nil {
				t.Fatalf("Assemble returned both a program and error %v", err)
			}
			return
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("Assemble returned a program that fails Verify: %v", err)
		}
		img, err := p.Linearize()
		if err != nil {
			return
		}
		// A fault or the instruction limit is an allowed outcome.
		_, _, _ = cpu.RunTimed(cpu.DefaultConfig(), img, 200)
	})
}
