package equiv_test

import (
	"errors"
	"testing"

	"repro/internal/equiv"
	"repro/internal/prog"
)

// renumber gives every block the targets' proofs can see — package blocks
// and everything they reference — a new ID.
func renumber(targets []*equiv.Snapshot, fns []*prog.Func) {
	seen := make(map[*prog.Block]bool)
	visit := func(b *prog.Block) {
		if b != nil && !seen[b] {
			seen[b] = true
			b.ID = 1_000_000 - 7*b.ID
		}
	}
	for _, fn := range fns {
		for _, b := range fn.Blocks {
			visit(b)
			visit(b.Taken)
			visit(b.Next)
			for _, in := range b.Insts {
				visit(in.BlockTarget)
			}
		}
	}
	for _, s := range targets {
		for _, b := range s.Entries() {
			visit(b)
		}
	}
}

// TestMemoReuseAcrossBuilds proves every package of one build through a
// memo, then proves a second, independent build of the same workload —
// fresh pointers, every block renumbered — through it. Every proof must
// be reused, and each reused certificate must equal the one a fresh proof
// of the second build returns. The budget-exceeded case covers the
// differential fuzz fallback.
func TestMemoReuseAcrossBuilds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  equiv.Config
	}{
		{"proved", equiv.Config{}},
		{"budget-exceeded", equiv.Config{MaxPaths: 1, FuzzTrials: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var memo equiv.Memo
			for _, tg := range buildTargets(t) {
				if _, _, err := memo.Prove(tg.snap, tc.cfg); err != nil {
					t.Fatalf("%s: %v", tg.snap.Package(), err)
				}
			}
			memo.Rotate()

			second := buildTargets(t)
			snaps := make([]*equiv.Snapshot, len(second))
			fns := make([]*prog.Func, len(second))
			for i, tg := range second {
				snaps[i], fns[i] = tg.snap, tg.fn
			}
			renumber(snaps, fns)
			exceeded := 0
			for _, tg := range second {
				got, reused, err := memo.Prove(tg.snap, tc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", tg.snap.Package(), err)
				}
				if !reused {
					t.Errorf("%s: not reused after renumbering", tg.snap.Package())
				}
				want, err := equiv.Prove(tg.snap, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Errorf("%s: reused %+v, fresh %+v", tg.snap.Package(), *got, *want)
				}
				if got.BudgetExceeded {
					exceeded++
				}
			}
			if tc.cfg.MaxPaths == 1 && exceeded == 0 {
				t.Error("no package exceeded a one-path budget; the fuzz fallback went unexercised")
			}
		})
	}
}

// TestMutationCorpusThroughMemo reruns the mutation corpus with every
// proof going through a memo that already holds the clean package's
// certificate. A mutant is a different problem, so each must still be
// refuted with the counterexample a plain Prove finds, and a refutation
// must never be cached.
func TestMutationCorpusThroughMemo(t *testing.T) {
	var memo equiv.Memo
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			const maxSites = 40
			for siteIdx := 0; siteIdx < maxSites; siteIdx++ {
				targets := buildTargets(t)
				var tg *target
				var st site
				rem := siteIdx
				for _, cand := range targets {
					ss := m.sites(cand.fn)
					if rem < len(ss) {
						tg, st = cand, ss[rem]
						break
					}
					rem -= len(ss)
				}
				if tg == nil {
					t.Fatalf("mutation %s: exhausted %d sites, none rejected", m.name, siteIdx)
				}
				if cert, _, err := memo.Prove(tg.snap, equiv.Config{}); err != nil || !cert.Equivalent {
					t.Fatalf("clean %s not proved: %v", tg.snap.Package(), err)
				}
				m.apply(st)
				_, reused, err := memo.Prove(tg.snap, equiv.Config{})
				if err == nil {
					continue // dead-code site, as in TestMutationCorpus
				}
				if reused || !errors.Is(err, equiv.ErrNotEquivalent) {
					t.Fatalf("mutation %s: reused=%v err=%v", m.name, reused, err)
				}
				_, plain := equiv.Prove(tg.snap, equiv.Config{})
				if plain == nil || plain.Error() != err.Error() {
					t.Fatalf("mutation %s: memo refutation %v, plain %v", m.name, err, plain)
				}
				ces := equiv.Counterexamples(err)
				if len(ces) == 0 || ces[0].Kind == "" || ces[0].Entry == "" {
					t.Fatalf("mutation %s: refutation carries no usable counterexample", m.name)
				}
				if got, want := ces[0].String(), equiv.Counterexamples(plain)[0].String(); got != want {
					t.Fatalf("mutation %s: counterexample %s through the memo, %s without", m.name, got, want)
				}
				if _, reused, again := memo.Prove(tg.snap, equiv.Config{}); again == nil || reused {
					t.Fatalf("mutation %s: refutation was cached", m.name)
				}
				return
			}
			t.Fatalf("mutation %s survived %d sites undetected", m.name, maxSites)
		})
	}
}
