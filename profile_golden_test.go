package vacuumpack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/workload"
)

// profileGolden is one input's row of testdata/profile_golden.json: the
// profile artifact's content hash, the profiling run's statistics and the
// baseline timing collected in the same pass.
type profileGolden struct {
	ArtifactHash string            `json:"artifact_hash"`
	Stats        core.ProfileStats `json:"stats"`
	Base         cpu.TimingStats   `json:"base"`
}

// profileGoldenInputs are the inputs the golden pins: a hot-loop kernel,
// an interpreter and a phase-rich program, all at scale 1.
var profileGoldenInputs = []struct{ bench, input string }{
	{"gzip", "A"},
	{"m88ksim", "A"},
	{"perl", "B"},
}

// profileGoldenEngines are the three timed-engine settings; every one must
// reproduce the same golden row.
func profileGoldenEngines() map[string]cpu.Config {
	def := cpu.DefaultConfig()
	noSB := def
	noSB.DisableSuperblocks = true
	noBC := def
	noBC.DisableBlockCache = true
	return map[string]cpu.Config{"default": def, "superblock=off": noSB, "blockcache=off": noBC}
}

// profileOnce runs the suite's profiling pass (HSD profile plus baseline
// timing) for one input under mc.
func profileOnce(t *testing.T, bench, input string, mc cpu.Config) profileGolden {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName(input)
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1
	img, err := b.Build(in).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	var base cpu.TimingStats
	pa, err := core.ProfileStageObserved(core.ScaledConfig(), mc, img, &base, obs.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return profileGolden{ArtifactHash: fmt.Sprintf("%016x", h), Stats: pa.Stats, Base: base}
}

// TestProfileGolden pins the profiling pass's observable results — the
// artifact content hash (which keys the warm store), the profile
// statistics and the baseline timing — under every timed-engine setting.
// A change that alters any detection, store fingerprint or baseline cycle
// fails here. Regenerate with `go test -run ProfileGolden -update .` only
// after an intentional change to the detector, the filter or the timing
// model.
func TestProfileGolden(t *testing.T) {
	got := make(map[string]profileGolden)
	for _, in := range profileGoldenInputs {
		key := in.bench + "/" + in.input
		for engine, mc := range profileGoldenEngines() {
			row := profileOnce(t, in.bench, in.input, mc)
			if prev, ok := got[key]; ok && prev != row {
				t.Errorf("%s: engine %s profiles differently from another engine:\n%+v\nvs\n%+v", key, engine, row, prev)
			}
			got[key] = row
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')

	golden := filepath.Join("testdata", "profile_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]profileGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: not profiled", key)
		} else if g != w {
			t.Errorf("%s: profile differs from %s:\n got  %+v\n want %+v", key, golden, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d inputs, test profiles %d", len(want), len(got))
	}
	if !bytes.Equal(raw, buf) {
		t.Errorf("%s is not in canonical form; regenerate with -update", golden)
	}
}
