package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updatePackageSetGolden = flag.Bool("update", false, "rewrite testdata/packageset_golden.json from current output")

// packageSetGoldenPath is the golden's location at the repository root,
// next to the trace and profile goldens.
var packageSetGoldenPath = filepath.Join("..", "..", "testdata", "packageset_golden.json")

// packageSetGoldenBenches are the daemon-shaped profiles the golden pins:
// the largest repack in the served fleet (vpr), the most packages (go) and
// a small phase-rich interpreter (perl).
var packageSetGoldenBenches = []string{"vpr", "go", "perl"}

// packageSetGolden is one program's row: the package set's content hash
// (which covers PackedAsm and every certificate), the packed image hash,
// the package count, and per certificate "package entries/proved/fuzzed/terms".
type packageSetGolden struct {
	SetHash      string   `json:"set_hash"`
	PackedHash   string   `json:"packed_hash"`
	Packages     int      `json:"packages"`
	Certificates []string `json:"certificates"`
}

func packageSetRow(tb testing.TB, set *PackageSet) packageSetGolden {
	tb.Helper()
	h, err := set.Hash()
	if err != nil {
		tb.Fatal(err)
	}
	row := packageSetGolden{
		SetHash:    fmt.Sprintf("%016x", h),
		PackedHash: fmt.Sprintf("%016x", set.PackedHash),
		Packages:   set.Stats.Packages,
	}
	for _, c := range set.Equiv {
		row.Certificates = append(row.Certificates,
			fmt.Sprintf("%s %d/%d/%d/%d", c.Package, c.Entries, c.PathsProved, c.PathsFuzzed, c.Terms))
	}
	return row
}

// TestPackageSetGolden pins the package stage's output on daemon-shaped
// profiles with translation validation on: the set's content hash, the
// packed image hash, the package count and every certificate's entry,
// path and term counts. A change to packaging, linking, the §5.4 passes,
// the prover or the disassembler that alters any byte the daemon would
// publish fails here. Regenerate with `go test -run PackageSetGolden
// -update ./internal/core` only after an intentional change to one of
// those.
func TestPackageSetGolden(t *testing.T) {
	got := make(map[string]packageSetGolden, len(packageSetGoldenBenches))
	for _, bench := range packageSetGoldenBenches {
		got[bench] = packageSetRow(t, daemonPackageStage(t, bench))
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *updatePackageSetGolden {
		if err := os.WriteFile(packageSetGoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", packageSetGoldenPath)
		return
	}
	raw, err := os.ReadFile(packageSetGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]packageSetGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, bench := range packageSetGoldenBenches {
		g, w := got[bench], want[bench]
		if g.SetHash != w.SetHash || g.PackedHash != w.PackedHash || g.Packages != w.Packages {
			t.Errorf("%s: set %s packed %s packages %d, golden set %s packed %s packages %d",
				bench, g.SetHash, g.PackedHash, g.Packages, w.SetHash, w.PackedHash, w.Packages)
		}
		if len(g.Certificates) != len(w.Certificates) {
			t.Errorf("%s: %d certificates, golden has %d", bench, len(g.Certificates), len(w.Certificates))
			continue
		}
		for i := range g.Certificates {
			if g.Certificates[i] != w.Certificates[i] {
				t.Errorf("%s: certificate %d is %q, golden %q", bench, i, g.Certificates[i], w.Certificates[i])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d programs, test packages %d", len(want), len(got))
	}
	if !bytes.Equal(raw, buf) {
		t.Errorf("%s is not in canonical form; regenerate with -update", packageSetGoldenPath)
	}
}
