package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/runmgr"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Layer microbenchmarks time blocks of back-to-back calls into one
// layer's public functions, in the shape (matrix size, kernel, batch
// size) the workload uses, and report the median block's time per
// call. A block is 1024 calls; operations slower than slowCall (an
// fsync, the SDE kernel) use blocks of slowBlock calls, where timer
// resolution no longer matters and 1024 calls would take seconds.
const (
	blockCalls = 1024
	slowBlock  = 32
	slowCall   = 50 * time.Microsecond
	minBlocks  = 3
)

// perCallNS runs blocks of fn for about budget, and at least least of
// them, and returns the median nanoseconds per call. fn makes n back-to-back calls in its own loop,
// so the measured block holds nothing but the layer and a counter.
func perCallNS(budget time.Duration, least int, fn func(n int) error) (float64, error) {
	t0 := time.Now()
	if err := fn(1); err != nil { // calibrate, and warm the path
		return 0, err
	}
	calls := blockCalls
	if time.Since(t0) > slowCall {
		calls = slowBlock
	}
	var blocks []float64
	deadline := time.Now().Add(budget)
	for len(blocks) < least || time.Now().Before(deadline) {
		start := time.Now()
		if err := fn(calls); err != nil {
			return 0, err
		}
		blocks = append(blocks, float64(time.Since(start))/float64(calls))
	}
	return median(blocks), nil
}

// each adapts a single call to perCallNS's block shape.
func each(call func() error) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	}
}

// layerCosts are the per-call costs of the layers, at one workload's
// shape.
type layerCosts struct {
	positionNS, drawNS, kernelNS    float64
	kernelContendedNS               float64
	addNS, snapshotNS, pushNS       float64
	finalizeS                       float64
	codecNS1, codecNS16             float64 // per window
	bytes1, bytes16                 float64 // per window
	walAppendNS, manifestSaveNS     float64
	saveResultsNS, checkpointSaveNS float64
}

var sink float64 // keeps measured results alive

// measureLayers runs every layer microbenchmark for e's workload,
// spending about budget in total; the smoke mode settles for one block
// each.
func measureLayers(e *env, budget time.Duration, quick bool) (layerCosts, error) {
	var c layerCosts
	least := minBlocks
	if quick {
		least = 1
	}
	const layers = 14
	slice := budget / layers
	// bench times one layer into dst; after the first failure it does
	// nothing, and the failure is returned where the next set-up step
	// or the end checks it.
	var failed error
	bench := func(dst *float64, fn func(n int) error) {
		if failed == nil {
			*dst, failed = perCallNS(slice, least, fn)
		}
	}
	nrow, ncol := e.id.Nrow, e.id.Ncol
	params := rng.DefaultParams()
	coord := rng.Coord{Experiment: e.base, Processor: 1}

	realize, err := e.factory(0)
	if err != nil {
		return c, err
	}
	stream, err := rng.NewStream(params, coord)
	if err != nil {
		return c, err
	}

	// rng: a lease opens with NewStream and every further realization
	// is one NextRealization.
	bench(&c.positionNS, func(n int) error {
		s, err := rng.NewStream(params, coord)
		for i := 1; i < n && err == nil; i++ {
			err = s.NextRealization()
		}
		return err
	})
	bench(&c.drawNS, func(n int) error {
		var sum float64
		for i := 0; i < n; i++ {
			sum += stream.Float64()
		}
		sink += sum
		return nil
	})

	// The kernel on a pre-positioned stream, into a reused buffer.
	out := make([]float64, nrow*ncol)
	bench(&c.kernelNS, each(func() error {
		return realize(stream, out)
	}))

	if failed != nil {
		return c, failed
	}
	if c.kernelContendedNS, err = contendedKernelNS(e, slice, least, params, c.kernelNS); err != nil {
		return c, err
	}

	// stat: one realization matrix as the kernel left it.
	acc := stat.New(nrow, ncol)
	bench(&c.addNS, each(func() error {
		return acc.AddTimed(out, time.Microsecond)
	}))
	bench(&c.snapshotNS, each(func() error {
		s := acc.Snapshot()
		acc.Reset()
		sink += float64(s.N)
		return nil
	}))

	// collect: a one-realization subtotal, as strict exchange pushes.
	acc.Reset()
	if err := acc.AddTimed(out, time.Microsecond); err != nil {
		return c, err
	}
	snap := acc.Snapshot()
	meta := store.RunMeta{SeqNum: e.base, Nrow: nrow, Ncol: ncol, MaxSV: e.w.l, Workers: workers,
		Params: params, Gamma: stat.DefaultConfidenceCoefficient, StartedAt: time.Now()}
	mem, err := collect.New(nil, meta, collect.Config{})
	if err != nil {
		return c, err
	}
	mem.Register(0)
	bench(&c.pushNS, each(func() error {
		return mem.Push(0, snap)
	}))

	// The final averaging: fold two shards, derive the report, write
	// the results files and the checkpoint.
	wd, err := os.MkdirTemp(e.dataDir, "layers-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(wd)
	dir, err := store.Open(wd)
	if err != nil {
		return c, err
	}
	eng, err := collect.New(dir, meta, collect.Config{})
	if err != nil {
		return c, err
	}
	for m := 0; m < workers; m++ {
		eng.Register(m)
		if err := eng.Push(m, snap); err != nil {
			return c, err
		}
	}
	bench(&c.finalizeS, each(func() error {
		_, err := eng.Finalize()
		return err
	}))
	c.finalizeS /= 1e9

	// wire: PushBatchArgs through one long-lived gob stream, as net/rpc
	// keeps one per connection (type descriptors travel once).
	for _, n := range []int{1, 16} {
		ns, bytesPer, err := codecCost(slice, least, snap, n)
		if err != nil {
			return c, err
		}
		if n == 1 {
			c.codecNS1, c.bytes1 = ns, bytesPer
		} else {
			c.codecNS16, c.bytes16 = ns, bytesPer
		}
	}

	// store, on the data-dir filesystem.
	wal, _, err := store.OpenWAL(filepath.Join(wd, store.WALFile), 0, time.Now())
	if err != nil {
		return c, err
	}
	defer wal.Close()
	bench(&c.walAppendNS, each(func() error {
		return wal.Append("running", "r0001", time.Now(), nil)
	}))
	rep := eng.Report()
	// A manifest-sized body: the run's status plus its final report,
	// which is what a terminal run's manifest carries.
	body := struct {
		Status runmgr.RunStatus
		Report runmgr.ReportPayload
	}{
		runmgr.RunStatus{ID: "r0001", State: runmgr.StateDone, Workload: e.id.Name, Fingerprint: e.id.Fingerprint(),
			SeqNum: e.base, MaxSamples: e.w.l, N: e.w.l},
		runmgr.ReportPayload{ID: "r0001", Nrow: nrow, Ncol: ncol, N: rep.N,
			Mean: jsonFloats(rep.Mean), Var: jsonFloats(rep.Var), AbsErr: jsonFloats(rep.AbsErr), RelErr: jsonFloats(rep.RelErr)},
	}
	manifestPath := filepath.Join(wd, store.ManifestFile)
	bench(&c.manifestSaveNS, each(func() error {
		return store.SaveManifest(manifestPath, body)
	}))
	bench(&c.saveResultsNS, each(func() error {
		return dir.SaveResults(rep, meta)
	}))
	bench(&c.checkpointSaveNS, each(func() error {
		return dir.SaveCheckpoint(snap, meta)
	}))
	return c, failed
}

func jsonFloats(xs []float64) []runmgr.JSONFloat {
	out := make([]runmgr.JSONFloat, len(xs))
	for i, x := range xs {
		out[i] = runmgr.JSONFloat(x)
	}
	return out
}

// codecCost measures gob encode + decode of a PushBatchArgs carrying n
// windows of snap, per window, and the bytes one window puts on the
// wire.
func codecCost(budget time.Duration, least int, snap stat.Snapshot, n int) (ns, bytesPerWindow float64, err error) {
	args := runmgr.PushBatchArgs{Worker: 1, Epoch: 1}
	for i := 0; i < n; i++ {
		args.Entries = append(args.Entries, runmgr.PushEntry{RunID: "r0001", LeaseID: 7, Done: int64(i + 1), Snap: snap})
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var size int
	perMsg, err := perCallNS(budget, least, each(func() error {
		if err := enc.Encode(args); err != nil {
			return err
		}
		size = buf.Len()
		var got runmgr.PushBatchArgs
		if err := dec.Decode(&got); err != nil {
			return err
		}
		if len(got.Entries) != n {
			return fmt.Errorf("gob round trip lost entries: %d of %d", len(got.Entries), n)
		}
		return nil
	}))
	return perMsg / float64(n), float64(size) / float64(n), err
}

// contendedKernelNS times the kernel the way a local run executes it:
// one routine per worker, built back to back by one goroutine from the
// registry's own factory, all workers calling at once. It returns the
// slowest block's time per call. Against workload.kernel_ns it shows
// what the workers cost each other — shared execution units on SMT
// siblings, and false sharing between routines whose state was
// allocated side by side (which varies from one construction to the
// next, hence fresh routines per block and the worst block reported).
func contendedKernelNS(e *env, budget time.Duration, least int, params rng.Params, aloneNS float64) (float64, error) {
	// A block must dwarf the cost of starting its goroutines, or the
	// worst block of a 30 ns kernel measures the scheduler.
	const minBlock = 5 * time.Millisecond
	worst := 0.0
	_, err := perCallNS(budget, least, func(n int) error {
		if n > 1 {
			n = max(n, int(float64(minBlock)/aloneNS))
		}
		routines := make([]core.Realization, workers)
		for m := range routines {
			var err error
			if routines[m], err = e.rawFactory(m); err != nil {
				return err
			}
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for m := range routines {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				// Stream and buffer are the worker's own, made on its
				// goroutine, as in core.runWorker.
				stream, err := rng.NewStream(params, rng.Coord{Experiment: e.base, Processor: uint64(m) + 1})
				out := make([]float64, e.id.Nrow*e.id.Ncol)
				for i := 0; i < n && err == nil; i++ {
					err = routines[m](stream, out)
				}
				errs[m] = err
			}(m)
		}
		wg.Wait()
		if n > 1 { // not the calibration call
			worst = max(worst, float64(time.Since(start))/float64(n))
		}
		return errors.Join(errs...)
	})
	return worst, err
}
