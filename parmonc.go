// Package parmonc is a Go implementation of PARMONC, the library for
// massively parallel stochastic (Monte Carlo) simulation described in
//
//	M. Marchenko, "PARMONC — A Software Library for Massively Parallel
//	Stochastic Simulation", PaCT 2011, LNCS 6873, pp. 302–316.
//
// The user writes a sequential routine that simulates a single
// realization of a random object — a matrix [ζ_ij] — drawing base random
// numbers from the stream it is handed, and passes it to Run. The
// library:
//
//   - distributes the simulation of independent realizations over
//     parallel workers, each on its own subsequence of a 128-bit
//     congruential generator with period 2^126 (so streams never
//     overlap, up to ~10^3 experiments × 10^5 workers × 10^16
//     realizations with the default leaps);
//   - periodically collects subtotal sample moments from the workers and
//     computes the matrices of sample means, variances, absolute errors
//     (the 3σ·L^(-1/2) confidence bound) and relative errors;
//   - periodically saves results and checkpoints in the parmonc_data
//     directory, in the file layout of the original library (func.dat,
//     func_ci.dat, func_log.dat, parmonc_exp.dat);
//   - resumes a previous simulation (Config.Resume), automatically
//     averaging in its results, and recovers interrupted runs from
//     per-worker snapshots (Manaver).
//
// # Quick start
//
// Estimate E α for α uniform on (0,1):
//
//	res, err := parmonc.Run(ctx, parmonc.Config{
//		Nrow: 1, Ncol: 1, MaxSamples: 1e6,
//	}, func(src *parmonc.Stream, out []float64) error {
//		out[0] = src.Float64()
//		return nil
//	})
//
// res.Report then holds the sample mean 0.5 ± 3σ/√L.
//
// The original library is driven by MPI; this implementation runs the
// same master/worker protocol over goroutines in one process (Run) and
// over TCP between processes (the cluster coordinator and worker
// commands), which exercises the identical algorithm: asynchronous
// workers, rare moment pushes, collector-side averaging by the paper's
// formula (5).
package parmonc

import (
	"context"

	"parmonc/internal/cluster"
	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Version identifies this implementation.
const Version = "1.0.0"

// Stream is a positioned substream of the parallel 128-bit generator.
// The realization routine draws base random numbers from it via Float64
// (the paper's rnd128()).
type Stream = rng.Stream

// Source is the minimal random source interface: anything with
// Float64() float64 uniform on (0,1). *Stream implements it.
type Source = rng.Source

// Coord identifies one realization subsequence: experiment, processor,
// realization.
type Coord = rng.Coord

// Params holds the leap exponents (n_e, n_p, n_r) of the substream
// hierarchy.
type Params = rng.Params

// Realization is the user-supplied sequential routine: it simulates one
// realization of the random object into out (row-major Nrow×Ncol),
// drawing base random numbers from src.
type Realization = core.Realization

// Config configures a simulation run; see the field documentation on
// core.Config for the full contract. The zero values of the optional
// fields select the paper's defaults.
type Config = core.Config

// Result is the outcome of a run: the final report, metadata, sample
// counts, and whether the run was interrupted.
type Result = core.Result

// Report holds the derived statistics: matrices of sample means,
// variances, absolute and relative errors, and their upper bounds.
type Report = stat.Report

// Snapshot is the serializable subtotal-moment state exchanged between
// workers and the collector and stored in checkpoints.
type Snapshot = stat.Snapshot

// Accumulator collects running sample moments of a matrix-valued random
// variable; Run manages accumulators internally, but they are exported
// for custom drivers and post-processing.
type Accumulator = stat.Accumulator

// RunMeta describes a stored simulation run.
type RunMeta = store.RunMeta

// Factory produces a fresh Realization for each worker; use it with
// RunFactory when the realization routine carries state.
type Factory = core.Factory

// Progress is the point-in-time statistics snapshot handed to
// Config.OnSave — the hook for controlling the stochastic errors during
// the simulation.
type Progress = core.Progress

// StopRule is a statistical completion criterion evaluated after every
// periodic save. Set Config.Stop to end a run when a target accuracy is
// reached instead of (or in addition to) a fixed sample volume.
type StopRule = collect.StopRule

// TargetRelErr returns the standard error-control stop rule: complete
// once the maximal relative error — the γ·σ̄·L^(−1/2) bound relative to
// the mean, in percent — drops below maxRelErrPct, after at least
// minSamples realizations (<= 0 selects the default of 1000).
func TargetRelErr(maxRelErrPct float64, minSamples int64) StopRule {
	return collect.TargetRelErr(maxRelErrPct, minSamples)
}

// Run executes the simulation described by cfg, calling r once per
// independent realization across cfg.Workers parallel workers. It is the
// Go analogue of the paper's parmoncc/parmoncf subroutines. r is called
// concurrently; stateful routines should use RunFactory instead.
func Run(ctx context.Context, cfg Config, r Realization) (Result, error) {
	return core.Run(ctx, cfg, r)
}

// RunFactory is Run with a per-worker realization factory, mirroring the
// original library where every MPI rank runs its own copy of the user
// routine.
func RunFactory(ctx context.Context, cfg Config, f Factory) (Result, error) {
	return core.RunFactory(ctx, cfg, f)
}

// Manaver recomputes averaged results from the per-worker snapshot files
// of an interrupted run — the paper's manaver command. It needs a run
// with Config.SaveWorkerSnapshots, and it rewrites nothing when the
// recovered sample volume would be below the one already saved.
// Otherwise it rewrites the results files and the run image
// (parmonc_data/checkpoint.dat): the run's base unchanged, the worker
// files as its shards, the recovered total as its fold. Running it
// again rewrites every file byte for byte, and a resumed run
// (Config.Resume) starts from the recovered sample volume.
func Manaver(workdir string) (Report, error) {
	return core.Manaver(workdir)
}

// DefaultParams returns the paper's default leap exponents
// (n_e, n_p, n_r) = (2^115, 2^98, 2^43).
func DefaultParams() Params { return rng.DefaultParams() }

// NewParams validates and returns custom leap exponents (the paper's
// genparam arguments are exponents of two).
func NewParams(ne, np, nr uint) (Params, error) { return rng.NewParams(ne, np, nr) }

// NewStream returns a stream positioned at the start of the realization
// subsequence identified by c — for users who drive the generator
// directly rather than through Run.
func NewStream(p Params, c Coord) (*Stream, error) { return rng.NewStream(p, c) }

// NewAccumulator returns an empty moment accumulator for nrow×ncol
// realization matrices.
func NewAccumulator(nrow, ncol int) *Accumulator { return stat.New(nrow, ncol) }

// ConfidenceCoefficient returns γ(λ) with
// P(|ζ̄ − Eζ| < γ·σ̄·L^(-1/2)) ≈ λ; γ(0.9973) = 3 is the default used by
// the library.
func ConfidenceCoefficient(lambda float64) (float64, error) {
	return stat.ConfidenceCoefficient(lambda)
}

// JobSpec describes a distributed simulation managed by a Coordinator.
type JobSpec = cluster.JobSpec

// Coordinator is the rank-0 process of a distributed job: it assigns
// processor substreams to TCP workers, merges their subtotal moments
// and writes results files. It replaces the MPI layer of the original
// library.
type Coordinator = cluster.Coordinator

// CoordinatorConfig bundles the optional coordinator knobs.
type CoordinatorConfig = cluster.CoordinatorConfig

// NewCoordinator starts a coordinator listening on addr
// (host:port, or host:0 for an ephemeral port).
func NewCoordinator(spec JobSpec, cfg CoordinatorConfig, addr string) (*Coordinator, error) {
	return cluster.NewCoordinator(spec, cfg, addr)
}

// WorkerConfig tunes RunWorker: the workload identity the coordinator
// checks at registration, the retry policy, and observability hooks.
// The zero value is a valid configuration.
type WorkerConfig = cluster.WorkerConfig

// RetryPolicy governs how a worker survives transport faults (attempt
// budget, backoff, timeouts). A worker started before its coordinator
// joins once the listener is up; RetryPolicy{Multiplier: 1} retries at a
// constant delay.
type RetryPolicy = cluster.RetryPolicy

// RunWorker connects to the coordinator at addr and simulates
// realizations with the factory-produced routine until the job
// completes or ctx is cancelled.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig, factory Factory) error {
	_, err := cluster.RunWorker(ctx, addr, cfg, factory)
	return err
}

// ExperimentsResult bundles the independent per-experiment reports and
// the pooled report produced by RunExperiments.
type ExperimentsResult = core.ExperimentsResult

// RunExperiments performs several independent stochastic experiments —
// one full simulation per experiments-subsequence number, each in its
// own results subdirectory — and pools their moments. Independent
// experiments are the paper's top hierarchy level and its recipe for
// validating a stochastic computation.
func RunExperiments(ctx context.Context, cfg Config, seqnums []uint64, f Factory) (ExperimentsResult, error) {
	return core.RunExperiments(ctx, cfg, seqnums, f)
}

// StableAccumulator is the numerically robust (Welford/Chan) moment
// accumulator; enable it inside Run with Config.StableMoments, or use
// it directly for custom post-processing.
type StableAccumulator = stat.StableAccumulator

// NewStableAccumulator returns an empty stable accumulator for
// nrow×ncol realization matrices.
func NewStableAccumulator(nrow, ncol int) *StableAccumulator {
	return stat.NewStable(nrow, ncol)
}
