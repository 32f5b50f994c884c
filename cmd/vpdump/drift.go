package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/phasedb"
	"repro/internal/prog"
)

// driftReport runs the offline twin of vpackd's drift tracking: profile
// the program once, build the baseline phase database from half of the
// detected hot spots (a repack's snapshot), then replay the other half
// through a tracker and print the window timeline and score
// breakdown. With shift set the replayed half is synthetically
// phase-shifted the same way vpbench -phaseshift shifts its streams, so
// the report demonstrates a rising score without a daemon.
func driftReport(w io.Writer, cfg core.Config, p *prog.Program, name string, dcfg drift.Config, shift bool) error {
	if !dcfg.Enabled() {
		return fmt.Errorf("drift tracking disabled (-driftwindow 0); nothing to report")
	}
	img, err := p.Linearize()
	if err != nil {
		return err
	}

	var spots []hsd.HotSpot
	if _, _, err := core.DetectHotSpots(cfg, cpu.DefaultConfig(), img, func(h hsd.HotSpot) { spots = append(spots, h) }); err != nil {
		return err
	}
	if len(spots) < 2 {
		return fmt.Errorf("%s: %d hot spots detected; need at least 2 to split baseline/replay", name, len(spots))
	}

	// Even-indexed spots seed the phase database whose snapshot becomes
	// the baseline (what the daemon digests at each repack); odd-indexed
	// spots are the replayed stream. Interleaving rather than halving
	// keeps both sides sampling the program's whole phase behavior, so a
	// stable replay keeps divergence and bias flips near zero and
	// -driftshift stands out on every axis.
	db := phasedb.New(cfg.Filter)
	var replay []hsd.HotSpot
	for i, hs := range spots {
		if i%2 == 0 {
			db.Record(hs)
		} else {
			replay = append(replay, hs)
		}
	}
	if shift {
		replay = shiftHotSpots(replay)
	}
	// Short local runs rarely fill a daemon-sized window; shrink so the
	// replay closes at least two windows and the score is measured.
	if dcfg.Window > len(replay)/2 {
		dcfg.Window = max(1, len(replay)/2)
		fmt.Fprintf(w, "note: only %d replay records; window shrunk to %d\n", len(replay), dcfg.Window)
	}

	tr := drift.NewTracker(dcfg, name, nil)
	tr.SetBaseline(db.Snapshot(), 1)
	for _, hs := range replay {
		id := -1
		if ph := db.Record(hs); ph != nil {
			id = ph.ID
		}
		tr.Observe(hs, id)
	}

	mode := "stable replay"
	if shift {
		mode = "phase-shifted replay"
	}
	fmt.Fprintf(w, "%s: %d hot spots (%d baseline, %d replay, %s), %d baseline phases\n",
		name, len(spots), len(spots)-len(replay), len(replay), mode, len(db.Phases))
	fmt.Fprintf(w, "window %d records, ring %d windows\n\n", dcfg.Window, dcfg.Ring)

	fmt.Fprintf(w, "%4s %7s %8s %-12s %9s %6s %8s %7s\n",
		"win", "records", "branches", "phases", "diverg", "flips", "crossed", "score")
	for _, ws := range tr.Timeline() {
		fmt.Fprintf(w, "%4d %7d %8d %-12s %9.3f %6d %8v %7.3f\n",
			ws.Seq, ws.Records, ws.Branches, phaseList(ws.Phases),
			ws.Divergence, ws.BiasFlips, ws.Crossed, ws.Score)
	}

	sc := tr.Score()
	fmt.Fprintf(w, "\nscore breakdown (over the %d most recent windows):\n", sc.WindowsScored)
	fmt.Fprintf(w, "  hot-set divergence  %6.3f\n", sc.HotSetDivergence)
	fmt.Fprintf(w, "  bias flips          %6d\n", sc.BiasFlips)
	fmt.Fprintf(w, "  filter crossings    %6.3f\n", sc.FilterCrossings)
	fmt.Fprintf(w, "  composite           %6.3f   (peak %.3f, baseline v%d)\n",
		sc.Composite, sc.Peak, sc.BaselineVersion)
	return nil
}

// shiftHotSpots applies the same synthetic phase shift vpbench's
// -phaseshift mode applies on the wire: drop the first two fifths of
// each record's branch set (a >30% set difference) and flip every
// surviving branch's taken count, inverting its bias. PCs stay real so
// the phase database still accepts the records.
func shiftHotSpots(spots []hsd.HotSpot) []hsd.HotSpot {
	out := make([]hsd.HotSpot, len(spots))
	for i, hs := range spots {
		drop := 2 * len(hs.Branches) / 5
		brs := make([]hsd.BranchRecord, 0, len(hs.Branches)-drop)
		for _, b := range hs.Branches[drop:] {
			b.Taken = b.Exec - b.Taken
			brs = append(brs, b)
		}
		out[i] = hs
		out[i].Branches = brs
	}
	return out
}

// phaseList renders a window's phase attributions compactly.
func phaseList(ids []int) string {
	if len(ids) == 0 {
		return "-"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, ",")
}
