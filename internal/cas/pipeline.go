// PipelineObserved: the store-aware single-program pipeline entry the
// CLIs (vpack, vpdump) share. It mirrors core.RunObserved exactly —
// same spans, same counters, same Outcome — except that the profile
// stage runs on the caller's timed engine, and with a store it is served
// from the store when a matching artifact exists and written through
// when it does not.
//
// Deliberately, no store.* metrics are emitted here: the single-program
// trace is the golden-trace regression surface, and a cold run with a
// fresh store must stay byte-identical to a storeless run. (The suite
// and the daemon, whose traces are not golden-gated, do emit store
// traffic.) Packaging is also never served from the store on this path:
// the CLIs report live region/package structures the decoded artifacts
// do not carry. The profile pass dominates single-run wall time, so the
// reuse that matters is still captured.
package cas

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/prog"
)

// PipelineObserved runs the full pipeline on p, profiling on the timed
// engine mc selects. With a non-nil s it reuses a stored profile for
// (ImageHash(p), cfg.ProfileKey()) when there is one, and stores the
// freshly computed profile otherwise. Store read problems (missing,
// corrupt) degrade to a cold run; store write problems are returned,
// since the caller asked for persistence.
func PipelineObserved(s *Store, cfg core.Config, mc cpu.Config, p *prog.Program, o obs.Observer) (*core.Outcome, error) {
	sp := o.StartSpan(obs.StagePipeline)
	defer sp.End()
	out := &core.Outcome{Original: p.Clone(), Packed: p}

	img, err := p.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize: %w", err)
	}
	var pa *core.ProfileArtifact
	if s != nil {
		pa, _ = s.GetProfileArtifact(core.ImageHash(img), cfg.ProfileKey())
	}
	if pa == nil {
		pa, err = core.ProfileStageObserved(cfg, mc, img, nil, o)
		if err != nil {
			return nil, err
		}
		if s != nil {
			if err := s.PutProfileArtifact(pa.ProgramHash, pa.ProfileKey, pa); err != nil {
				return nil, fmt.Errorf("cas: store profile: %w", err)
			}
		}
	}
	out.DB = pa.DB()
	out.ProfileInsts = pa.Stats.Insts
	out.ProfileBranches = pa.Stats.Branches
	out.Detections = pa.Stats.Detections
	if err := core.PackageObserved(cfg, out, p, img, pa.DB(), o); err != nil {
		return out, err
	}
	return out, nil
}
