package main

import "time"

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer loop that calls no repository code, so
// no change to the program can move it: a drift in its result between
// two sets of runs means the host changed, not the code. It returns the
// median nanoseconds per iteration over seven repetitions.
func calibrate() float64 {
	const iters = 2_000_000
	samples := make([]float64, 7)
	for rep := range samples {
		x := uint64(0x9e3779b97f4a7c15) + uint64(rep)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xff51afd7ed558ccd
		}
		samples[rep] = float64(time.Since(start).Nanoseconds()) / iters
		calibSink += x
	}
	return median(samples)
}
