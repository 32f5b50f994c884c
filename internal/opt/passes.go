package opt

import (
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/region"
)

// Passes selects and parameterizes the §5.4 package-optimization passes.
// core.Config translates its Enable* knobs into this.
type Passes struct {
	Merge    bool
	Sink     bool
	Layout   bool
	Schedule bool
	// Approx swaps the damped iterative weight solver for the single-pass
	// approximation when Layout is on.
	Approx bool
	Sched  Resources
	// EntrySeedWeight seeds weight propagation at package entries.
	EntrySeedWeight float64
	// Record, when set, accumulates transformation certificates (merges,
	// sinks, issue cycles) for post-hoc verification.
	Record *PassRecord
	// Check, when set, runs after each applied pass with the pass name —
	// the verifier's sandwich hook. A non-nil error aborts the remaining
	// passes and is returned by ApplyPasses.
	Check func(pass string) error
}

// ApplyPasses runs the selected passes over one package function, using
// the region's arc temperatures as branch probabilities. entered is the
// program's prog.Program.EnteredBlocks set; the passes mutate only fn and
// never fuse an entered block, so one set computed after installation
// serves every package. entries are the package's entry blocks
// (weight-propagation seeds); when empty the function entry is seeded
// instead. Each applied pass emits a PassApplied event (N = blocks
// merged, instructions sunk, or blocks touched) and bumps the opt.*
// counters on o. The returned error is always nil unless
// ps.Check rejects a pass's output.
func ApplyPasses(ps Passes, entered map[*prog.Block]bool, fn *prog.Func, entries []*prog.Block, r *region.Region, o obs.Observer) error {
	prob := ProbFromRegion(r)
	check := func(pass string) error {
		if ps.Check == nil {
			return nil
		}
		return ps.Check(pass)
	}
	if ps.Merge {
		n := mergeBlocks(fn, entered, ps.Record)
		o.Emit(obs.Event{Kind: obs.PassApplied, Phase: r.PhaseID, Name: "merge", N: int64(n)})
		o.Count("opt.merged_blocks", int64(n))
		if err := check("merge"); err != nil {
			return err
		}
	}
	if ps.Sink {
		n := sinkColdCode(fn, ps.Record)
		o.Emit(obs.Event{Kind: obs.PassApplied, Phase: r.PhaseID, Name: "sink", N: int64(n)})
		o.Count("opt.sunk_insts", int64(n))
		if err := check("sink"); err != nil {
			return err
		}
	}
	if ps.Layout {
		seed := make(map[*prog.Block]float64)
		for _, c := range entries {
			seed[c] = ps.EntrySeedWeight
		}
		if e := fn.Entry(); e != nil && len(seed) == 0 {
			seed[e] = ps.EntrySeedWeight
		}
		w := WeightsFor(ps.Approx, fn, prob, seed)
		Layout(fn, w, prob)
		o.Emit(obs.Event{Kind: obs.PassApplied, Phase: r.PhaseID, Name: "layout", N: int64(len(fn.Blocks))})
		o.Count("opt.laid_out_blocks", int64(len(fn.Blocks)))
		if err := check("layout"); err != nil {
			return err
		}
	}
	if ps.Schedule {
		schedule(fn, ps.Sched, ps.Record)
		o.Emit(obs.Event{Kind: obs.PassApplied, Phase: r.PhaseID, Name: "schedule", N: int64(len(fn.Blocks))})
		o.Count("opt.scheduled_blocks", int64(len(fn.Blocks)))
		if err := check("schedule"); err != nil {
			return err
		}
	}
	return nil
}
