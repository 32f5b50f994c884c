package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/workload"
)

// buildInput synthesizes one benchmark input at the test scale.
func buildInput(t *testing.T, bench, input string) (*workload.Benchmark, workload.Input) {
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
	return b, in
}

// normalizedTrace renders a recorder's trace with wall-clock fields
// zeroed, so two equivalent runs compare byte-identical.
func normalizedTrace(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Export().Normalize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStagedResumability is the stage-resumability contract: running the
// pipeline stage by stage, serializing every intermediate artifact to
// JSON and reloading it before the next stage, must produce the same
// packed program — and the same observer trace — as the straight-through
// Run, with the verifier gating every stage.
func TestStagedResumability(t *testing.T) {
	for _, bench := range []string{"m88ksim", "perl"} {
		t.Run(bench, func(t *testing.T) {
			cfg := ScaledConfig()
			cfg.Verify = true
			b, in := buildInput(t, bench, "A")

			// Straight through, observed.
			recA := obs.NewRecorder()
			pA := b.Build(in)
			outA, err := RunObserved(cfg, pA, recA)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}

			// Staged, with a JSON round trip at every stage boundary,
			// composed exactly as RunObserved composes the stages.
			recB := obs.NewRecorder()
			pB := b.Build(in)
			sp := recB.StartSpan(obs.StagePipeline)
			img, err := pB.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			pa, err := ProfileStageObserved(cfg, cpu.DefaultConfig(), img, nil, recB)
			if err != nil {
				t.Fatalf("profile stage: %v", err)
			}
			pa = roundTripProfile(t, pa)
			ra, err := RegionStageObserved(cfg, img, pa, recB)
			if err != nil {
				t.Fatalf("region stage: %v", err)
			}
			ra = roundTripRegion(t, ra)
			set, err := PackageStageObserved(cfg, pB, img, ra, recB)
			if err != nil {
				t.Fatalf("package stage: %v", err)
			}
			sp.End()

			// Same packed image, bit for bit.
			imgA, err := outA.Packed.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			imgB, err := pB.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			if ImageHash(imgA) != ImageHash(imgB) {
				t.Fatalf("packed image %016x (staged) != %016x (straight)", ImageHash(imgB), ImageHash(imgA))
			}

			// Same package statistics.
			res := set.Result()
			if len(res.Packages) != len(outA.Pack.Packages) || res.Links != outA.Pack.Links ||
				res.AddedInsts != outA.Pack.AddedInsts || res.SelectedInsts != outA.Pack.SelectedInsts {
				t.Fatalf("staged result %+v differs from straight %+v", set.Stats, outA.Pack)
			}
			if set.SkippedPhases != outA.SkippedPhases {
				t.Fatalf("staged skipped %d phases, straight %d", set.SkippedPhases, outA.SkippedPhases)
			}

			// Same observer trace, byte for byte.
			ta, tb := normalizedTrace(t, recA), normalizedTrace(t, recB)
			if !bytes.Equal(ta, tb) {
				t.Fatalf("staged trace differs from straight run trace:\n--- straight ---\n%s\n--- staged ---\n%s", ta, tb)
			}

			// The staged packed program still runs equivalently.
			outB := &Outcome{Original: b.Build(in), Packed: pB, DB: pa.DB(), Pack: res}
			ev, err := outB.Evaluate(cpu.DefaultConfig(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !ev.Equivalent {
				t.Fatal("resumed packed program diverges from the original")
			}
		})
	}
}

func roundTripProfile(t *testing.T, pa *ProfileArtifact) *ProfileArtifact {
	t.Helper()
	h1, err := pa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pa.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfileArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("profile artifact hash changed across the round trip: %016x -> %016x", h1, h2)
	}
	return got
}

func roundTripRegion(t *testing.T, ra *RegionArtifact) *RegionArtifact {
	t.Helper()
	h1, err := ra.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ra.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRegionArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("region artifact hash changed across the round trip: %016x -> %016x", h1, h2)
	}
	return got
}

// TestPackageSetRoundTrip closes the loop on stage 3's artifact: the
// encoded set reassembles to the packed image and keeps its hash.
func TestPackageSetRoundTrip(t *testing.T) {
	cfg := ScaledConfig()
	b, in := buildInput(t, "m88ksim", "A")
	p := b.Build(in)
	out, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	img, err := out.Packed.Linearize()
	if err != nil {
		t.Fatal(err)
	}

	set := newPackageSet(out.Packed, out.Pack, 0, 0)
	h1, err := set.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePackageSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("package set hash changed across the round trip: %016x -> %016x", h1, h2)
	}
	if got.PackedHash != ImageHash(img) {
		t.Fatalf("decoded PackedHash %016x, packed image %016x", got.PackedHash, ImageHash(img))
	}
	rebuilt, err := got.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rimg, err := rebuilt.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if ImageHash(rimg) != got.PackedHash {
		t.Fatalf("reassembled image %016x, PackedHash %016x", ImageHash(rimg), got.PackedHash)
	}
}

// TestStagedStaleness proves every stage rejects artifacts from a
// different build with ErrStaleArtifact.
func TestStagedStaleness(t *testing.T) {
	cfg := ScaledConfig()
	b1, in1 := buildInput(t, "m88ksim", "A")
	b2, in2 := buildInput(t, "perl", "A")
	p1, p2 := b1.Build(in1), b2.Build(in2)
	img1, err := p1.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	img2, err := p2.Linearize()
	if err != nil {
		t.Fatal(err)
	}

	pa, err := ProfileStage(cfg, img1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RegionStage(cfg, img2, pa); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("RegionStage on foreign image: %v, want ErrStaleArtifact", err)
	}
	ra, err := RegionStage(cfg, img1, pa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PackageStage(cfg, p2, img2, ra); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("PackageStage on foreign image: %v, want ErrStaleArtifact", err)
	}
	if _, err := ra.Regions(p2, img2); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("Regions on foreign image: %v, want ErrStaleArtifact", err)
	}
}
