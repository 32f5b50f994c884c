package report

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/prog"
)

// storeImage assembles and linearizes a program whose body is the given
// store sequence; r1 holds the data base, r2 and r3 the values 7 and 9.
// The sequences mirror internal/core's Evaluate store-order cases.
func storeImage(t *testing.T, stores string) *prog.Image {
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
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestVariantEquivalentStoreOrder drives the suite's equivalence check
// the way runVariant does — the original's profile-pass statistics
// against a timed run of the packed image. A scheduler-legal swap of
// independent stores breaks the order-sensitive hash but must still count
// as equivalent; a changed value or a dropped store must not. The
// original runs functionally only when a hash disagrees, and at most once.
func TestVariantEquivalentStoreOrder(t *testing.T) {
	const pair = `
  st r2, 0(r1)
  st r3, 8(r1)`
	origImg := storeImage(t, pair)
	pa, err := core.ProfileStage(core.ScaledConfig(), origImg, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: cpu.DefaultConfig()}
	orig := &originalEffects{img: origImg}
	cases := []struct {
		name, packed string
		want         bool
	}{
		{"identical", pair, true},
		{"independent stores swapped", `
  st r3, 8(r1)
  st r2, 0(r1)`, true},
		{"value changed", `
  st r2, 0(r1)
  st r2, 8(r1)`, false},
		{"store dropped", `
  st r3, 8(r1)`, false},
	}
	var ran *cpu.Machine
	for _, c := range cases {
		_, _, m, err := timePacked(opts, storeImage(t, c.packed), obs.Nop{})
		if err != nil {
			t.Fatal(err)
		}
		if got := orig.equivalent(pa.Stats, m); got != c.want {
			t.Errorf("%s: Equivalent = %v, want %v", c.name, got, c.want)
		}
		switch {
		case c.name == "identical" && orig.m != nil:
			t.Error("identical stores ran the original: the hash match must decide")
		case ran != nil && orig.m != ran:
			t.Errorf("%s: the original ran again", c.name)
		}
		ran = orig.m
	}
}

// TestVariantEquivalentConcurrent checks the shared original under the
// parallel variant path: variants whose hashes disagree reach it at once,
// and it must run once and compare safely from every goroutine.
func TestVariantEquivalentConcurrent(t *testing.T) {
	origImg := storeImage(t, `
  st r2, 0(r1)
  st r3, 8(r1)`)
	pa, err := core.ProfileStage(core.ScaledConfig(), origImg, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: cpu.DefaultConfig()}
	orig := &originalEffects{img: origImg}
	swapped := storeImage(t, `
  st r3, 8(r1)
  st r2, 0(r1)`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, m, err := timePacked(opts, swapped, obs.Nop{})
			if err != nil {
				t.Error(err)
				return
			}
			if !orig.equivalent(pa.Stats, m) {
				t.Error("swapped independent stores refuted")
			}
		}()
	}
	wg.Wait()
}
