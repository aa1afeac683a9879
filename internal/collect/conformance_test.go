package collect_test

// Cross-transport conformance: the same workload driven through the
// goroutine transport (internal/core) and the net/rpc transport
// (internal/cluster) must produce the same final statistics, because
// both are now thin shells around one collect.Collector. This is the
// guard against the failure mode the engine extraction exists to
// prevent — two transports silently drifting apart statistically
// (Lubachevsky's parallel-vs-serial discrepancy).

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
	"parmonc/internal/workload"

	// The registry-wide conformance sweep iterates every built-in.
	_ "parmonc/internal/workload/builtin"
)

// countingFactory returns realizations that ignore the RNG stream and
// emit a deterministic value sequence indexed by call count. With one
// worker per transport, both transports then merge the exact same
// snapshot sequence in the exact same order — regardless of the worker
// index each transport assigns (core starts at 0, cluster at 1) — so
// the final moments must match bit for bit.
func countingFactory(int) (core.Realization, error) {
	var k float64
	return func(_ *rng.Stream, out []float64) error {
		for i := range out {
			out[i] = 2 + math.Sin(1.3*k+0.7*float64(i))
		}
		k++
		return nil
	}, nil
}

func runGoroutineTransport(t *testing.T, L int64) stat.Report {
	t.Helper()
	res, err := core.RunFactory(context.Background(), core.Config{
		Nrow:           2,
		Ncol:           2,
		MaxSamples:     L,
		Workers:        1,
		StrictExchange: true, // push after every realization, like PassEvery=1
		WorkDir:        t.TempDir(),
	}, countingFactory)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report
}

func runRPCTransport(t *testing.T, L int64) stat.Report {
	t.Helper()
	spec := cluster.JobSpec{
		Nrow:       2,
		Ncol:       2,
		MaxSamples: L,
		Params:     rng.DefaultParams(),
		Gamma:      stat.DefaultConfidenceCoefficient,
		PassEvery:  1,
	}
	coord, err := cluster.NewCoordinator(spec, cluster.CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		_, err := cluster.RunWorker(ctx, coord.Addr(), cluster.WorkerConfig{}, countingFactory)
		workerErr <- err
	}()

	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTransportConformanceBitIdentical(t *testing.T) {
	const L = 200
	a := runGoroutineTransport(t, L)
	b := runRPCTransport(t, L)

	if a.N != L || b.N != L {
		t.Fatalf("N: goroutine %d, rpc %d, want %d", a.N, b.N, L)
	}
	for i := range a.Mean {
		if a.Mean[i] != b.Mean[i] {
			t.Errorf("Mean[%d]: %v vs %v", i, a.Mean[i], b.Mean[i])
		}
		if a.Var[i] != b.Var[i] {
			t.Errorf("Var[%d]: %v vs %v", i, a.Var[i], b.Var[i])
		}
		if a.AbsErr[i] != b.AbsErr[i] {
			t.Errorf("AbsErr[%d]: %v vs %v", i, a.AbsErr[i], b.AbsErr[i])
		}
	}
}

// conformanceOverrides shrink the expensive workloads so the
// registry-wide sweep stays fast; identity checking is orthogonal to
// parameter magnitude, and the small settings still exercise every
// scenario package's full realization path.
var conformanceOverrides = map[string]workload.Values{
	"diffusion":   {"h": 0.01, "tend": 1, "nout": 10},
	"mm1":         {"warmup": 50, "batch": 50},
	"ising":       {"l": 8, "sweeps": 10, "warmup": 4},
	"dsmc":        {"n": 40},
	"coagulation": {"n0": 50, "volume": 50},
	"chem":        {"a0": 40},
}

// TestRegistryConformanceBitIdentical sweeps every registered workload
// through both transports under the conditions that make runs
// bit-comparable: one worker per transport, per-realization exchange,
// and a single lease covering the whole run, so both transports
// enumerate the identical substream partition in the identical merge
// order. Any difference — in the RNG coordinates a transport hands its
// worker, in merge arithmetic, in push sequencing — shows up as a
// bit-level divergence on some workload.
func TestRegistryConformanceBitIdentical(t *testing.T) {
	const L = 40
	for _, d := range workload.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			id, err := d.Identity(conformanceOverrides[d.Name])
			if err != nil {
				t.Fatal(err)
			}
			v := workload.Values(id.Params)

			factory, err := d.Factory(v)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunFactory(context.Background(), core.Config{
				Nrow:           id.Nrow,
				Ncol:           id.Ncol,
				MaxSamples:     L,
				Workers:        1,
				LeaseSize:      L,
				StrictExchange: true, // push after every realization, like PassEvery=1
				WorkDir:        t.TempDir(),
			}, factory)
			if err != nil {
				t.Fatal(err)
			}
			a := res.Report

			spec := cluster.JobSpec{
				Nrow:       id.Nrow,
				Ncol:       id.Ncol,
				MaxSamples: L,
				Params:     rng.DefaultParams(),
				Gamma:      stat.DefaultConfidenceCoefficient,
				PassEvery:  1,
				LeaseSize:  L,
				Workload:   id,
			}
			coord, err := cluster.NewCoordinator(spec, cluster.CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			workerFactory, err := d.Factory(v)
			if err != nil {
				t.Fatal(err)
			}
			workerErr := make(chan error, 1)
			go func() {
				_, err := cluster.RunWorker(ctx, coord.Addr(),
					cluster.WorkerConfig{Workload: id}, workerFactory)
				workerErr <- err
			}()
			b, err := coord.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-workerErr; err != nil {
				t.Fatal(err)
			}

			if a.N != L || b.N != L {
				t.Fatalf("N: goroutine %d, rpc %d, want %d", a.N, b.N, L)
			}
			for i := range a.Mean {
				if a.Mean[i] != b.Mean[i] {
					t.Errorf("Mean[%d]: %v vs %v", i, a.Mean[i], b.Mean[i])
				}
				if a.Var[i] != b.Var[i] {
					t.Errorf("Var[%d]: %v vs %v", i, a.Var[i], b.Var[i])
				}
				if a.AbsErr[i] != b.AbsErr[i] {
					t.Errorf("AbsErr[%d]: %v vs %v", i, a.AbsErr[i], b.AbsErr[i])
				}
			}
		})
	}
}

// With several workers the merge order is scheduling-dependent and the
// RPC transport may overshoot the target, so only statistical agreement
// can be asserted: both transports sampling U(0,1) from the same RNG
// hierarchy must land on the same mean within Monte Carlo error.
func TestTransportConformanceMultiWorker(t *testing.T) {
	const L = 4000
	uniform := func(int) (core.Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			out[0] = src.Float64()
			return nil
		}, nil
	}

	res, err := core.RunFactory(context.Background(), core.Config{
		Nrow:       1,
		Ncol:       1,
		MaxSamples: L,
		Workers:    4,
		PassPeriod: time.Millisecond,
		WorkDir:    t.TempDir(),
	}, uniform)
	if err != nil {
		t.Fatal(err)
	}

	spec := cluster.JobSpec{
		Nrow:       1,
		Ncol:       1,
		MaxSamples: L,
		Params:     rng.DefaultParams(),
		Gamma:      stat.DefaultConfidenceCoefficient,
		PassEvery:  100,
	}
	coord, err := cluster.NewCoordinator(spec, cluster.CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		go cluster.RunWorker(ctx, coord.Addr(), cluster.WorkerConfig{}, uniform)
	}
	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if res.Report.N < L || rep.N < L {
		t.Fatalf("N: goroutine %d, rpc %d, want >= %d", res.Report.N, rep.N, L)
	}
	// U(0,1): σ/√L ≈ 0.0046 at L=4000; 5σ keeps this deterministic in
	// practice while still catching a broken merge.
	if d := math.Abs(res.Report.MeanAt(0, 0) - rep.MeanAt(0, 0)); d > 0.025 {
		t.Fatalf("transport means diverge: %v vs %v (Δ=%v)",
			res.Report.MeanAt(0, 0), rep.MeanAt(0, 0), d)
	}
}

// --- Sharded-collector interleaving conformance -----------------------
//
// The sharded collector's contract: the report is a function of each
// worker's own push sequence only — the cross-worker arrival order must
// never reach the statistics. The sweeps below drive the same
// per-worker push lists through (a) seeded-shuffled serial
// interleavings and (b) genuinely concurrent goroutine schedules, and
// require every report to be bit-identical to a worker-major reference.

// interleaveMeta describes the direct-collector sweep run.
func interleaveMeta(workers int) store.RunMeta {
	return store.RunMeta{
		SeqNum: 1, Nrow: 2, Ncol: 2, Workers: workers,
		Params: rng.DefaultParams(), Gamma: stat.DefaultConfidenceCoefficient,
		StartedAt: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
	}
}

// interleavePushes builds worker w's deterministic push list from the
// counting sequence (distinct phase per worker).
func interleavePushes(w, count int) []stat.Snapshot {
	out := make([]stat.Snapshot, count)
	row := make([]float64, 4)
	for k := range out {
		a := stat.New(2, 2)
		for i := range row {
			row[i] = 2 + math.Sin(1.3*float64(k)+0.7*float64(i)+11*float64(w))
		}
		if err := a.Add(row); err != nil {
			panic(err)
		}
		out[k] = a.Snapshot()
	}
	return out
}

// momentsBitsEqual compares the moment statistics of two reports for
// exact bit identity (MeanSimTime is wall-clock-derived and excluded).
func momentsBitsEqual(a, b stat.Report) (int, bool) {
	if a.N != b.N {
		return -1, false
	}
	for i := range a.Mean {
		for _, pair := range [][2]float64{
			{a.Mean[i], b.Mean[i]}, {a.Var[i], b.Var[i]},
			{a.AbsErr[i], b.AbsErr[i]}, {a.RelErr[i], b.RelErr[i]},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return i, false
			}
		}
	}
	return 0, true
}

func TestShardedInterleavingBitIdentical(t *testing.T) {
	const (
		workers = 8
		count   = 40
		trials  = 6
	)
	pushes := make([][]stat.Snapshot, workers)
	for w := range pushes {
		pushes[w] = interleavePushes(w, count)
	}
	newEngine := func() *collect.Collector {
		eng, err := collect.New(nil, interleaveMeta(workers), collect.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			eng.Register(w)
		}
		return eng
	}

	// Worker-major reference: all of worker 0's pushes, then worker 1's…
	ref := newEngine()
	for w := range pushes {
		for seq, s := range pushes[w] {
			if err := ref.PushFrom(collect.PushOrigin{Worker: w, Seq: uint64(seq + 1)}, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := ref.Report()

	// (a) Seeded-shuffled serial interleavings: deliver pushes in a
	// random global order that preserves each worker's own order.
	for trial := 0; trial < trials; trial++ {
		eng := newEngine()
		r := rand.New(rand.NewSource(int64(trial)*131 + 7))
		cursor := make([]int, workers)
		remaining := workers * count
		for remaining > 0 {
			w := r.Intn(workers)
			if cursor[w] >= count {
				continue
			}
			if err := eng.PushFrom(collect.PushOrigin{Worker: w, Seq: uint64(cursor[w] + 1)}, pushes[w][cursor[w]]); err != nil {
				t.Fatal(err)
			}
			cursor[w]++
			remaining--
		}
		if i, ok := momentsBitsEqual(eng.Report(), want); !ok {
			t.Fatalf("shuffled trial %d: report differs from worker-major reference at entry %d", trial, i)
		}
	}

	// (b) Concurrent goroutine schedules: the scheduler picks the
	// interleaving; saves run concurrently to stress the fold.
	for trial := 0; trial < trials; trial++ {
		eng := newEngine()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seq, s := range pushes[w] {
					if err := eng.PushFrom(collect.PushOrigin{Worker: w, Seq: uint64(seq + 1)}, s); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if seq%16 == 0 {
						_ = eng.Report() // mid-run folds must not disturb the totals
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if i, ok := momentsBitsEqual(eng.Report(), want); !ok {
			t.Fatalf("concurrent trial %d: report differs from worker-major reference at entry %d", trial, i)
		}
	}
}

// TestMultiWorkerTransportDeterministic: with the sharded collector the
// goroutine transport's report is bit-deterministic even at Workers > 1
// — the lease partition fixes each worker's realization subsequence and
// the fold fixes the reduction order, so the goroutine scheduler has
// nothing left to perturb. (The serialized collector could not promise
// this: cross-worker merge order followed the scheduler.)
func TestMultiWorkerTransportDeterministic(t *testing.T) {
	run := func() stat.Report {
		res, err := core.RunFactory(context.Background(), core.Config{
			Nrow:           2,
			Ncol:           2,
			MaxSamples:     240,
			Workers:        4,
			LeaseSize:      60,
			StrictExchange: true,
			WorkDir:        t.TempDir(),
		}, countingFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	want := run()
	for trial := 0; trial < 3; trial++ {
		if i, ok := momentsBitsEqual(run(), want); !ok {
			t.Fatalf("trial %d: multi-worker report not bit-deterministic (entry %d)", trial, i)
		}
	}
}
