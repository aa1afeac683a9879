package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark is gated on is a 2-vCPU guest whose host
// takes CPU away in episodes: for half a minute to a few minutes every
// CPU-bound loop, the benchmark's and anything else's, runs 1.3–1.6×
// slower, and no guest counter shows it (steal stays 0). A run that
// falls into an episode would read as a 50% regression. So the
// end-to-end pass measures the machine beside the program: between
// repetitions it times a fixed spin loop on as many goroutines as the
// workloads have workers, and converts the CPU-bound share of each
// measured time to what it would have been at the reference speed.
// Time the program spent waiting (fsync, the wire, sleeping pollers)
// is left as measured. Raw values are reported next to converted ones.

// calIterations is the length of one calibration burst per goroutine:
// long enough (≈45 ms) that starting the goroutines is noise, short
// enough that a burst per repetition costs a few percent of the run.
const calIterations = 20_000_000

// refCalSeconds is what one calibration burst takes on the reference
// box (2 vCPU Xeon @ 2.10GHz) when the host is quiet. It only fixes
// the unit: converted times are seconds at that speed.
const refCalSeconds = 0.0425

var calSink atomic.Uint64 // keeps the spin loop's result alive

// calibrate runs one burst and returns its wall seconds.
func calibrate() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s uint64 = 1
			f := 1.0
			for i := 0; i < calIterations; i++ {
				s = s*6364136223846793005 + 1442695040888963407
				f = f*1.0000001 + float64(s>>60)
			}
			calSink.Add(s + uint64(f))
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// speedFactor is what a measured time is multiplied by to convert it
// to reference speed: the share cpuShare of it that was CPU-bound
// shrinks by how much slower than the reference the machine ran
// (calSeconds/refCalSeconds), the rest stays.
func speedFactor(calSeconds, cpuShare float64) float64 {
	cpuShare = min(max(cpuShare, 0), 1)
	return 1 - cpuShare + cpuShare*refCalSeconds/calSeconds
}
