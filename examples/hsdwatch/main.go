// hsdwatch: watch the Hot Spot Detector operate in real time. The example
// attaches the hardware model to a running program and logs every
// detection with the branches it captured, then shows how the software
// filter collapses the raw detections into unique phases — step 1 of the
// Vacuum Packing pipeline in isolation.
//
//	go run ./examples/hsdwatch
package main

import (
	"fmt"
	"log"

	vp "repro"
)

func main() {
	bench, err := vp.Benchmark("mpeg2dec")
	if err != nil {
		log.Fatal(err)
	}
	program := bench.Build(bench.Inputs[0])
	img, err := program.Linearize()
	if err != nil {
		log.Fatal(err)
	}

	// One timed run feeds the detector every retired conditional branch;
	// each hot spot it reports is filtered into the phase database live.
	db := vp.NewPhaseDB()
	st, _, err := vp.DetectHotSpots(vp.ScaledConfig(), vp.DefaultMachine(), img, func(h vp.HotSpot) {
		ph := db.Record(h)
		status := "NEW PHASE"
		if ph.Detections > 1 {
			status = fmt.Sprintf("phase %d again", ph.ID)
		}
		fmt.Printf("detection #%-3d at branch %-8d: %2d hot branches -> %s\n",
			h.Seq, h.DetectedAtBranch, len(h.Branches), status)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%s\n", db)
	fmt.Printf("detector saw %d conditional branches over %d instructions: %d detections, %d redundant\n",
		st.Branches, st.Insts, st.Detections, db.Redundant)

	for _, ph := range db.Phases {
		fmt.Printf("\nphase %d (%d detections, live %d..%d):\n",
			ph.ID, ph.Detections, ph.FirstAtBranch, ph.LastAtBranch)
		for i, bs := range ph.SortedBranches() {
			if i >= 6 {
				fmt.Printf("  ... and %d more branches\n", len(ph.Branches)-6)
				break
			}
			blk := img.BlockAt(bs.PC)
			fmt.Printf("  pc=%-7d %-22v exec=%-4d taken=%.0f%%\n",
				bs.PC, blk, bs.WindowExec(), bs.TakenFraction()*100)
		}
	}

	cz := db.Categorize()
	fmt.Println("\nbranch behavior across phases (Figure 9 taxonomy):")
	for c := vp.Category(0); c < vp.NumCategories; c++ {
		fmt.Printf("  %-16s %5.1f%% of dynamic hot-spot branches (%d static)\n",
			c, cz.Fraction(c)*100, cz.Count[c])
	}
}
