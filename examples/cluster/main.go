// Cluster: a distributed PARMONC job in one program.
//
// The original library runs over MPI: rank 0 collects, other ranks
// simulate. Here the same protocol runs over TCP — a coordinator plus
// several workers, each of which could equally live on another machine
// (give the coordinator a routable address and start workers with the
// same realization routine). For the demo everything shares one process.
//
// The job estimates the absorption probability of the transport slab at
// three thicknesses as a 3×1 realization matrix.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"parmonc"
	"parmonc/dist"
)

// realization estimates absorption indicators for three slab widths
// (pure absorber, so P(absorb) = 1 − e^{−width} exactly).
func realization(src *parmonc.Stream, out []float64) error {
	for i, width := range widths {
		// One particle per width: absorbed unless its first free path
		// crosses the slab.
		if dist.Exponential(src, 1) < width {
			out[i] = 1
		}
	}
	return nil
}

var widths = []float64{0.5, 1.0, 2.0}

func main() {
	spec := parmonc.JobSpec{
		SeqNum:     0,
		Nrow:       3,
		Ncol:       1,
		MaxSamples: 300_000,
		Params:     parmonc.DefaultParams(),
		Gamma:      3,
		PassEvery:  1000,
		// A worker silent for MissBudget (default 3) heartbeats is
		// declared dead and its lease remainders are reissued.
		Heartbeat: 3 * time.Second,
	}
	coord, err := parmonc.NewCoordinator(spec, parmonc.CoordinatorConfig{
		WorkDir:    ".",
		AverPeriod: 100 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	fmt.Printf("coordinator on %s, spawning 4 workers\n", coord.Addr())

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := parmonc.RunWorker(ctx, coord.Addr(), parmonc.WorkerConfig{}, func(int) (parmonc.Realization, error) {
				return realization, nil
			}); err != nil {
				log.Printf("worker: %v", err)
			}
		}()
	}

	rep, err := coord.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("L = %d histories per width\n", rep.N)
	fmt.Printf("%8s  %22s  %10s\n", "width", "P(absorb)", "exact")
	for i, w := range widths {
		exact := 1 - math.Exp(-w)
		fmt.Printf("%8.1f  %9.5f±%-10.5f  %10.5f\n",
			w, rep.MeanAt(i, 0), rep.AbsErrAt(i, 0), exact)
	}
}
