package main

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
)

func assemble(t *testing.T, body string) *prog.Image {
	t.Helper()
	p, err := asm.Assemble(".data 0 0 0\n.func main\n.main\n  li r1, 1048576\n  li r2, 7\n  li r3, 9\n" + body + "  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// Reordered independent stores change the order-sensitive data hash but
// not the data; a different value or a different last store to one
// address does.
func TestSameStores(t *testing.T) {
	orig := assemble(t, "  st r2, 0(r1)\n  st r3, 8(r1)\n")
	cases := []struct {
		name string
		body string
		same bool
	}{
		{"identical", "  st r2, 0(r1)\n  st r3, 8(r1)\n", true},
		{"independent stores swapped", "  st r3, 8(r1)\n  st r2, 0(r1)\n", true},
		{"value changed", "  st r2, 0(r1)\n  st r2, 8(r1)\n", false},
		{"store dropped", "  st r2, 0(r1)\n", false},
		{"address changed", "  st r2, 0(r1)\n  st r3, 16(r1)\n", false},
	}
	for _, c := range cases {
		same, detail, err := sameStores(orig, assemble(t, c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if same != c.same {
			t.Errorf("%s: same = %v (%s), want %v", c.name, same, detail, c.same)
		}
	}
	// Two stores to one address in the other order: the same multiset,
	// a different final value.
	twice := assemble(t, "  st r2, 0(r1)\n  st r3, 0(r1)\n")
	same, detail, err := sameStores(twice, assemble(t, "  st r3, 0(r1)\n  st r2, 0(r1)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Errorf("same-address stores swapped: same = true (%s), want false", detail)
	}
}
