package core

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/prog"
)

// storeProgram assembles a program whose body is the given store
// sequence; r1 holds the data base, r2 and r3 the values 7 and 9.
func storeProgram(t *testing.T, stores string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(fmt.Sprintf(`
.data 0 0 0 0
.func main
.main
  li r1, 1048576
  li r2, 7
  li r3, 9
%s
  halt
`, stores))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvaluateEquivalentStoreOrder: a legal reordering of independent
// stores changes the order-sensitive store hash but not the program's
// effects, so Evaluate must call it equivalent; real differences — a
// changed value, a dropped store, a moved address, or swapped stores to
// one address — must still be refuted.
func TestEvaluateEquivalentStoreOrder(t *testing.T) {
	const pair = `
  st r2, 0(r1)
  st r3, 8(r1)`
	cases := []struct {
		name, original, packed string
		want                   bool
	}{
		{"identical", pair, pair, true},
		{"independent stores swapped", pair, `
  st r3, 8(r1)
  st r2, 0(r1)`, true},
		{"value changed", pair, `
  st r2, 0(r1)
  st r2, 8(r1)`, false},
		{"store dropped", pair, `
  st r3, 8(r1)`, false},
		{"address moved", pair, `
  st r2, 0(r1)
  st r3, 16(r1)`, false},
		{"same-address stores swapped", `
  st r2, 0(r1)
  st r3, 0(r1)`, `
  st r3, 0(r1)
  st r2, 0(r1)`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := &Outcome{Original: storeProgram(t, c.original), Packed: storeProgram(t, c.packed)}
			ev, err := out.Evaluate(cpu.DefaultConfig(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Equivalent != c.want {
				t.Errorf("Equivalent = %v, want %v", ev.Equivalent, c.want)
			}
		})
	}
}
