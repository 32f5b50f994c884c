package core

import (
	"testing"

	"repro/internal/equiv"
	"repro/internal/obs"
)

// reuseExtraRecords is how many more shifted records the daemon's next
// repack sees in the reuse tests.
const reuseExtraRecords = 25

// reuseWant pins how many proofs vpr's second repack reuses: every one.
// The count is deterministic, so a proof key that stops being independent
// of block IDs fails here loudly rather than just running slower.
var reuseWant = map[string]int{"vpr": 476}

// TestRepackReuseExact repacks each golden program a second time, with
// reuseExtraRecords more shifted records, once through the first repack's
// proof memo and once without. The two must publish the same bytes and
// carry identical certificates.
func TestRepackReuseExact(t *testing.T) {
	for _, bench := range packageSetGoldenBenches {
		t.Run(bench, func(t *testing.T) {
			p, _, pa := daemonProfile(t, bench)
			var memo equiv.Memo
			// Even the first repack reuses proofs: packages duplicated
			// within one repack share a key.
			first := repackReusing(t, p, pa, &memo)
			t.Logf("%s: first repack reused %d of %d proofs", bench, first.Reused(), len(first.Equiv))
			if memo.Len() == 0 {
				t.Fatal("first repack left no certificates in the memo")
			}
			memo.Rotate()

			next := daemonProfileExtended(t, bench, reuseExtraRecords)
			reused := repackReusing(t, p, next, &memo)
			fresh := repackReusing(t, p, next, nil)
			hr, err := reused.Hash()
			if err != nil {
				t.Fatal(err)
			}
			hf, err := fresh.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if hr != hf {
				t.Fatalf("set hash %016x with reuse, %016x without", hr, hf)
			}
			if len(reused.Equiv) != len(fresh.Equiv) {
				t.Fatalf("%d certificates with reuse, %d without", len(reused.Equiv), len(fresh.Equiv))
			}
			for i := range fresh.Equiv {
				if *reused.Equiv[i] != *fresh.Equiv[i] {
					t.Errorf("certificate %d: %+v with reuse, %+v without", i, *reused.Equiv[i], *fresh.Equiv[i])
				}
			}
			if fresh.Reused() != 0 {
				t.Errorf("repack without a memo reports %d reused proofs", fresh.Reused())
			}
			t.Logf("%s: second repack reused %d of %d proofs", bench, reused.Reused(), len(reused.Equiv))
			if want, ok := reuseWant[bench]; ok && reused.Reused() != want {
				t.Errorf("second repack reused %d proofs, want %d", reused.Reused(), want)
			}
		})
	}
}

// BenchmarkRepackReuseDaemon times the package stage of vpr's second
// daemon repack (reuseExtraRecords more shifted records) proving through
// the first repack's memo. Compare BenchmarkPackageStageDaemon, which
// proves every package.
func BenchmarkRepackReuseDaemon(b *testing.B) {
	p, _, pa := daemonProfile(b, "vpr")
	var memo equiv.Memo
	repackReusing(b, p, pa, &memo)
	memo.Rotate()
	next := daemonProfileExtended(b, "vpr", reuseExtraRecords)
	cfg := ScaledConfig()
	cfg.Equiv = true
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clone := p.Clone()
		img, err := clone.Linearize()
		if err != nil {
			b.Fatal(err)
		}
		ra, err := RegionStage(cfg, img, next)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := PackageStageReusing(cfg, clone, img, ra, obs.Nop{}, &memo); err != nil {
			b.Fatal(err)
		}
	}
}
