// Package core implements the PARMONC simulation driver — the Go
// analogue of the paper's parmoncf/parmoncc subroutines (Sec. 2.2 and
// 3.2).
//
// The driver launches M workers (the paper's "processors"). Worker m
// repeatedly simulates independent realizations of the user's random
// object, drawing base random numbers from its own processor subsequence
// of the parallel RNG, realization k from the k-th realization
// subsequence. Workers accumulate subtotal moments locally and
// periodically push them to a collector (the paper's 0-th processor),
// which merges them by formula (5), computes the error matrices, and
// saves results and checkpoints to files. The exchange is asynchronous:
// no worker ever waits for another.
//
// Setting Config.Resume starts from the moments stored by a previous run
// (the paper's res = 1), with the requirement — enforced here as in the
// paper — that the new run uses a different experiments-subsequence
// number so that no base random numbers are reused.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Realization computes one realization of the random object into out
// (row-major Nrow×Ncol), drawing base random numbers from src. It is the
// user-supplied sequential routine of the paper (e.g. difftraj): it must
// not retain src or out, and it must not share state with other calls —
// the driver calls it concurrently from different workers.
type Realization func(src *rng.Stream, out []float64) error

// Config configures a simulation run. Zero values select documented
// defaults.
type Config struct {
	// Nrow, Ncol are the realization matrix dimensions (required).
	Nrow, Ncol int

	// MaxSamples is the paper's maxsv: the total number of new
	// realizations to simulate across all workers. Zero or negative
	// means unbounded — the run continues until the context is
	// cancelled, the paper's "endless simulation limited only by the
	// time framework of a job".
	MaxSamples int64

	// Resume, when true, merges the results of the previous simulation
	// found in WorkDir (the paper's res = 1). The previous run must have
	// identical matrix dimensions and a different SeqNum.
	Resume bool

	// SeqNum selects the "experiments" subsequence of the parallel RNG.
	SeqNum uint64

	// Workers is the paper's M. Default: runtime.GOMAXPROCS(0).
	Workers int

	// LeaseSize is the realization-window size of the substream leases
	// the run is partitioned into: lease i covers realizations
	// [0, Count) of processor subsequence i+1, and worker m executes
	// leases m, m+Workers, m+2·Workers, … in order. The partition is a
	// pure function of (MaxSamples, LeaseSize) — shared with the
	// cluster transport — so a distributed run with the same LeaseSize
	// enumerates exactly the same substreams as this in-process driver,
	// whichever workers execute them. Zero defaults to
	// ceil(MaxSamples/Workers): one lease per worker, the classic
	// static split.
	LeaseSize int64

	// PassPeriod is the paper's perpass: how often each worker pushes
	// its subtotal moments to the collector. Default: 1 minute.
	PassPeriod time.Duration

	// AverPeriod is the paper's peraver: how often the collector
	// averages and saves results to files. Default: 2 minutes.
	AverPeriod time.Duration

	// StrictExchange makes every worker push its subtotal after every
	// single realization — the "strictest conditions" of the paper's
	// Fig. 2 performance test. File saves remain governed by AverPeriod
	// (in the paper, too, only the exchange is per-realization).
	StrictExchange bool

	// WorkDir is where the parmonc_data directory is created.
	// Default: current directory.
	WorkDir string

	// Gamma is the confidence coefficient of the error matrices.
	// Default: 3 (λ = 0.997).
	Gamma float64

	// Params are the parallel RNG leap exponents. The zero value loads
	// parmonc_genparam.dat from WorkDir if present, else the defaults.
	Params rng.Params

	// SaveWorkerSnapshots writes per-worker cumulative moments on every
	// pass, enabling post-mortem averaging with manaver.
	SaveWorkerSnapshots bool

	// StableMoments makes the collector accumulate with the numerically
	// stable Welford/Chan algorithm instead of raw sums. Use it when
	// |E ζ| ≫ σ, where raw Σζ² loses the variance to cancellation; see
	// stat.StableAccumulator. Workers still ship raw-sum snapshots (the
	// shared wire format), so per-push rounding is unchanged; the
	// protection applies to the long-lived collector state, which is
	// where L grows large.
	StableMoments bool

	// OnSave, if non-nil, is invoked after every periodic save with a
	// snapshot of the running statistics. This is the paper's "control
	// the absolute and relative stochastic errors during the
	// simulation": cancel the run's context from the callback to stop
	// as soon as a target accuracy is reached. The callback runs on the
	// collector goroutine; it must not block for long and must not call
	// back into the running simulation.
	OnSave func(Progress)

	// Stop, if non-nil, is the run's statistical completion rule: it is
	// evaluated by the collector after every periodic save, and once it
	// fires the workers stop at their next realization boundary and the
	// run finalizes normally (Result.Interrupted stays false). Combine
	// with MaxSamples = 0 for a pure accuracy-targeted run — see
	// collect.TargetRelErr for the standard target-relative-error rule.
	Stop collect.StopRule

	// Hook, if non-nil, receives the collector engine's events (pushes,
	// merges, saves, rejections); see collect.Hook for the contract.
	Hook collect.Hook

	// Registry, if non-nil, receives the run's metrics: the collector
	// engine's counters plus the driver's realization-timing and
	// collector-push-latency series. Serve it over HTTP with obs.Serve
	// (the parmonc CLI's --http flag) to watch a run live.
	Registry *obs.Registry

	// Journal, if non-nil, receives the run-event journal: run
	// start/stop plus every collector event (push, merge, save, ...),
	// buffered off the hot path. The caller owns the journal and closes
	// it after the run.
	Journal *obs.Journal

	// Workload, Fingerprint and Scenario are the optional workload
	// identity of the run: the registered workload name, its
	// parameter-resolved fingerprint ("name@v1/0123456789ab"), and the
	// canonical compact-JSON scenario spec that reproduces the
	// parameterization. They are recorded in the run metadata, the
	// experiment log and the run_start journal event. The core driver
	// does not interpret them — identity is resolved by the caller
	// (internal/workload), keeping this package free of a dependency on
	// the registry. Empty strings mean "unnamed user factory".
	Workload    string
	Fingerprint string
	Scenario    string
}

// Progress is the point-in-time view of a running simulation handed to
// Config.OnSave. It is the collector engine's progress type.
type Progress = collect.Progress

// withDefaults validates cfg and fills in defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Nrow <= 0 || cfg.Ncol <= 0 {
		return cfg, fmt.Errorf("core: invalid realization dimensions %d×%d", cfg.Nrow, cfg.Ncol)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	if cfg.PassPeriod == 0 {
		cfg.PassPeriod = time.Minute
	}
	if cfg.PassPeriod < 0 {
		return cfg, fmt.Errorf("core: negative pass period %v", cfg.PassPeriod)
	}
	if cfg.AverPeriod == 0 {
		cfg.AverPeriod = 2 * time.Minute
	}
	if cfg.AverPeriod < 0 {
		return cfg, fmt.Errorf("core: negative averaging period %v", cfg.AverPeriod)
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "."
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = stat.DefaultConfidenceCoefficient
	}
	if cfg.Gamma < 0 {
		return cfg, fmt.Errorf("core: negative confidence coefficient %g", cfg.Gamma)
	}
	if cfg.MaxSamples < 0 {
		cfg.MaxSamples = 0
	}
	if cfg.LeaseSize < 0 {
		return cfg, fmt.Errorf("core: negative lease size %d", cfg.LeaseSize)
	}
	if cfg.LeaseSize == 0 && cfg.MaxSamples > 0 && cfg.Workers > 0 {
		cfg.LeaseSize = (cfg.MaxSamples + int64(cfg.Workers) - 1) / int64(cfg.Workers)
	}
	return cfg, nil
}

// Result is the outcome of a run.
type Result struct {
	// Report holds the final averaged statistics, including any resumed
	// previous results.
	Report stat.Report

	// Meta is the run metadata as stored in the checkpoint.
	Meta store.RunMeta

	// NewSamples is the number of realizations simulated by this run
	// (Report.N minus the resumed volume).
	NewSamples int64

	// Elapsed is the wall time of the run.
	Elapsed time.Duration

	// Interrupted reports that the run stopped because the context was
	// cancelled rather than because MaxSamples was reached.
	Interrupted bool

	// Metrics is the collector engine's instrumentation for this run:
	// pushes, merges, saves, rejected snapshots, save latency.
	Metrics collect.MetricsSnapshot
}

// runObs bundles the driver's own instrumentation — realization
// timing/throughput and collector-push latency, the series the paper's
// Fig. 2 evaluation (T_comp(L), push traffic) is derived from. A nil
// *runObs disables instrumentation with a single pointer check, so
// uninstrumented runs pay nothing on the realization hot path.
type runObs struct {
	realizations *obs.Counter   // realizations completed across all workers
	realizeSec   *obs.Histogram // mean realization wall time, one observation per timed block
	pushSec      *obs.Histogram // collector-side merge latency per push
}

// newRunObs registers the driver series plus live gauges over the
// engine. Realization times span sub-µs (the pi workload) to seconds
// (the paper's SDE at fine meshes); push merges are µs-scale.
func newRunObs(reg *obs.Registry, eng *collect.Collector) *runObs {
	if reg == nil {
		return nil
	}
	reg.GaugeFunc("parmonc_samples_total", "Total sample volume merged so far (incl. resumed base).",
		func() float64 { return float64(eng.N()) })
	reg.GaugeFunc("parmonc_active_workers", "Workers currently registered with the collector.",
		func() float64 { return float64(eng.Active()) })
	return &runObs{
		realizations: reg.Counter("parmonc_realizations_total", "Realizations simulated by this process."),
		realizeSec: reg.Histogram("parmonc_realization_seconds", "Mean wall time of one realization, observed once per timed block of realizations.",
			obs.ExpBuckets(1e-6, 4, 16)),
		pushSec: reg.Histogram("parmonc_collector_push_seconds", "Collector-side latency of one subtotal push (validate + merge + bookkeeping).",
			obs.ExpBuckets(1e-6, 4, 16)),
	}
}

// Factory produces a fresh Realization for worker m. Use RunFactory
// when the realization routine carries per-call state (integrators,
// scratch buffers, samplers with caches): each worker then gets its own
// instance, just as each MPI rank in the original library runs its own
// copy of the user routine.
type Factory func(worker int) (Realization, error)

// Build calls the factory for the given worker and rejects a nil
// routine — the one place every transport takes the Realization its
// loop will call.
func (f Factory) Build(worker int) (Realization, error) {
	r, err := f(worker)
	if err != nil {
		return nil, fmt.Errorf("building realization for worker %d: %w", worker, err)
	}
	if r == nil {
		return nil, fmt.Errorf("factory returned nil realization for worker %d", worker)
	}
	return r, nil
}

// Run executes the simulation described by cfg, calling r once per
// realization. r is invoked concurrently from cfg.Workers goroutines, so
// it must be safe for concurrent use (stateless routines are; for
// stateful ones use RunFactory). It returns the final averaged
// statistics. On context cancellation the run saves whatever it has (the
// paper's job-kill model) and returns with Result.Interrupted set;
// cancellation is not an error.
func Run(ctx context.Context, cfg Config, r Realization) (Result, error) {
	if r == nil {
		return Result{}, errors.New("core: nil realization routine")
	}
	return RunFactory(ctx, cfg, func(int) (Realization, error) { return r, nil })
}

// RunFactory is Run with a per-worker realization factory.
func RunFactory(ctx context.Context, cfg Config, factory Factory) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, errors.New("core: nil realization factory")
	}

	dir, err := store.Open(cfg.WorkDir)
	if err != nil {
		return Result{}, err
	}

	params := cfg.Params
	if params == (rng.Params{}) {
		params, err = rng.LoadParams(cfg.WorkDir)
		if err != nil {
			return Result{}, err
		}
	}
	if err := params.Validate(); err != nil {
		return Result{}, err
	}

	// Partition the run into substream leases (shared with the cluster
	// transport): lease i covers processor subsequence i+1. Worker m
	// executes leases m, m+Workers, … in order, so the realization →
	// substream mapping is a pure function of the configuration,
	// independent of goroutine scheduling.
	leases := collect.PartitionLeases(cfg.MaxSamples, cfg.LeaseSize)
	// Every worker needs a distinct processor subsequence in unbounded
	// mode, and the lease partition must fit the hierarchy in bounded
	// mode — reject configurations that exceed either capacity.
	if err := params.CheckCoord(rng.Coord{Experiment: cfg.SeqNum, Processor: uint64(cfg.Workers)}); err != nil {
		return Result{}, fmt.Errorf("core: run does not fit the RNG hierarchy: %w", err)
	}
	if len(leases) > 0 {
		last := leases[len(leases)-1]
		var maxReal uint64
		if cfg.LeaseSize > 1 {
			maxReal = uint64(cfg.LeaseSize - 1)
		}
		if err := params.CheckCoord(rng.Coord{Experiment: cfg.SeqNum, Processor: last.Proc, Realization: maxReal}); err != nil {
			return Result{}, fmt.Errorf("core: run does not fit the RNG hierarchy: %w", err)
		}
	}

	meta := store.RunMeta{
		SeqNum:      cfg.SeqNum,
		Nrow:        cfg.Nrow,
		Ncol:        cfg.Ncol,
		MaxSV:       cfg.MaxSamples,
		Workers:     cfg.Workers,
		Params:      params,
		Gamma:       cfg.Gamma,
		StartedAt:   time.Now(),
		Workload:    cfg.Workload,
		Fingerprint: cfg.Fingerprint,
		Scenario:    cfg.Scenario,
	}

	// The collector engine owns base-checkpoint establishment (resume
	// or fresh), accumulation, periodic saves and metrics; this driver
	// is only the goroutine transport feeding it.
	eng, err := collect.New(dir, meta, collect.Config{
		Resume:              cfg.Resume,
		AverPeriod:          cfg.AverPeriod,
		SaveWorkerSnapshots: cfg.SaveWorkerSnapshots,
		StableMoments:       cfg.StableMoments,
		OnSave:              cfg.OnSave,
		Stop:                cfg.Stop,
		Hook:                collect.MultiHook(cfg.Hook, collect.JournalHook(cfg.Journal)),
		Registry:            cfg.Registry,
	})
	if err != nil {
		return Result{}, err
	}
	ro := newRunObs(cfg.Registry, eng)
	if cfg.Registry != nil && cfg.Fingerprint != "" {
		// Prometheus info pattern: a constant 1 whose labels carry the
		// workload identity, joinable against every other series.
		cfg.Registry.Gauge("parmonc_workload_info", "Workload identity of this run.",
			obs.L("workload", cfg.Workload), obs.L("fingerprint", cfg.Fingerprint)).Set(1)
	}
	if cfg.Journal != nil {
		startFields := map[string]any{
			"workers": cfg.Workers, "seqnum": cfg.SeqNum, "maxsv": cfg.MaxSamples,
			"nrow": cfg.Nrow, "ncol": cfg.Ncol, "resume": cfg.Resume,
		}
		if cfg.Fingerprint != "" {
			startFields["workload"] = cfg.Fingerprint
		}
		cfg.Journal.Record(obs.Event{Kind: "run_start", Fields: startFields})
		defer func() {
			cfg.Journal.Record(obs.Event{Kind: "run_stop", Samples: eng.N()})
		}()
	}
	resumedN := eng.BaseN()
	for m := 0; m < cfg.Workers; m++ {
		eng.Register(m)
	}

	start := time.Now()

	// workerLeases deals the partition round-robin: worker m gets
	// leases m, m+Workers, m+2·Workers, …
	workerLeases := func(m int) []collect.Lease {
		var mine []collect.Lease
		for i := m; i < len(leases); i += cfg.Workers {
			mine = append(mine, leases[i])
		}
		return mine
	}

	errs := make(chan error, cfg.Workers)
	var wg sync.WaitGroup

	// Build every worker's realization before launching any goroutine,
	// so a factory failure cannot leave half a fleet running.
	routines := make([]Realization, cfg.Workers)
	for m := range routines {
		r, err := factory.Build(m)
		if err != nil {
			return Result{}, fmt.Errorf("core: %w", err)
		}
		routines[m] = r
	}

	// Workers push straight into the sharded collector engine — the
	// engine is the paper's 0-th processor, and since it only locks the
	// pushing worker's shard there is no merge funnel to route pushes
	// through: the exchange is asynchronous, no worker ever waits for
	// another.
	for m := 0; m < cfg.Workers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			if err := runWorker(ctx, cfg, params, m, workerLeases(m), routines[m], eng, ro); err != nil {
				errs <- fmt.Errorf("core: worker %d: %w", m, err)
			}
		}(m)
	}
	wg.Wait()

	interrupted := ctx.Err() != nil
	close(errs)
	var runErr error
	for e := range errs {
		if e != nil && runErr == nil {
			runErr = e
		}
	}

	// Final save even after a worker failure: the run fails cleanly
	// with whatever was accumulated on disk. If the store itself is
	// broken the finalize fails too, and the worker's error wins.
	rep, ferr := eng.Finalize()
	if runErr == nil {
		runErr = ferr
	}
	if runErr == nil {
		return Result{
			Report:      rep,
			Meta:        meta,
			NewSamples:  rep.N - resumedN,
			Elapsed:     time.Since(start),
			Interrupted: interrupted,
			Metrics:     eng.Metrics(),
		}, nil
	}
	return Result{}, runErr
}

// runWorker simulates worker m's leases in order until they are
// exhausted, the context is cancelled or the stop rule fires, pushing
// subtotal snapshots straight into the collector engine every
// PassPeriod (or after every realization under StrictExchange) — the
// push only takes this worker's shard lock, so workers never serialize
// on each other. An unbounded run (no leases) is one endless lease on
// processor subsequence m+1.
func runWorker(ctx context.Context, cfg Config, params rng.Params, m int, leases []collect.Lease, r Realization, eng *collect.Collector, ro *runObs) (err error) {
	local := stat.New(cfg.Nrow, cfg.Ncol)
	lastPass := time.Now()

	// push lends the collector a view of the live subtotal (see
	// stat.Snapshot); local is untouched until Push returns.
	push := func() error {
		if local.N() == 0 {
			return nil
		}
		var t0 time.Time
		if ro != nil {
			t0 = time.Now()
		}
		perr := eng.Push(m, local.View())
		if ro != nil {
			ro.pushSec.Observe(time.Since(t0).Seconds())
		}
		if perr != nil {
			return perr
		}
		local.Reset()
		return nil
	}
	// Flush the final subtotal; a flush failure surfaces unless the
	// worker is already failing.
	defer func() {
		if ferr := push(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	// Strict exchange cuts after every realization; a periodic run has
	// no count cut, only the clock's.
	window := int64(math.MaxInt64)
	if cfg.StrictExchange {
		window = 1
	}
	running := func() bool { return ctx.Err() == nil && !eng.StopSatisfied() }
	step := func(b Block) (bool, error) {
		if ro != nil {
			ro.realizations.Add(b.Size)
			ro.realizeSec.Observe(b.Elapsed.Seconds() / float64(b.Size))
		}
		if cfg.StrictExchange || b.End.Sub(lastPass) >= cfg.PassPeriod {
			if err := push(); err != nil {
				return false, err
			}
			lastPass = b.End
		}
		return running(), nil
	}

	if cfg.MaxSamples <= 0 {
		leases = []collect.Lease{{Proc: uint64(m) + 1, Count: math.MaxInt64}}
	}
	for _, l := range leases {
		if !running() {
			return nil
		}
		if err := RunLease(params, cfg.SeqNum, l, window, r, local, step); err != nil {
			return err
		}
	}
	return nil
}

// blockTarget is how long RunLease aims to make one timed block of
// realizations: long enough that two clock readings are noise against
// it, short enough that a block boundary — where step can stop the
// lease — comes around promptly.
const blockTarget = 10 * time.Microsecond

// Block is one run of consecutive realizations of a lease that RunLease
// timed with a single pair of clock readings and reports to step.
type Block struct {
	Last    int64         // index within the lease of the block's last realization
	Size    int64         // realizations in the block
	End     time.Time     // clock reading at the end of the block
	Elapsed time.Duration // wall time of the whole block
	Cut     bool          // the block ends on a window cut or at the lease end
}

// RunLease is the library's one realization loop, shared by every
// transport: it simulates the realizations of lease l — coordinates
// Start … Start+Count-1 of processor subsequence l.Proc in experiment
// seqNum — in order, each on its own realization substream, into a
// zeroed buffer, and adds each result to local.
//
// The lease is cut into exchange windows of window realizations (1 for
// strict exchange, math.MaxInt64 for none) counted from its start, and
// realizations are timed in blocks: a block starts at one realization,
// doubles while it takes less than about 10 µs and halves when it takes
// well over that, and never crosses a window cut or the lease end, so
// a slow routine or strict exchange times every realization alone. The
// block's wall time goes to local with its last realization, so
// local.SimTime() grows by exactly the Elapsed of each block. After
// every block RunLease calls step, which owns the exchange policy (what
// to do at a cut, when to push on the clock) and returns false to end
// the lease early — cancellation, a stop signal, a fence. An endless
// window is a lease with Count = math.MaxInt64.
//
// A routine that fails or panics ends the lease with an error naming
// the realization. The realizations before it in its block are already
// in local, so step is told of them first, as a block that is not a cut
// and whose time local does not hold; its verdict is not asked for.
func RunLease(params rng.Params, seqNum uint64, l collect.Lease, window int64, r Realization, local *stat.Accumulator,
	step func(Block) (more bool, err error)) error {
	if window < 1 {
		return fmt.Errorf("core: exchange window %d must be at least 1", window)
	}
	stream, err := rng.NewStream(params, rng.Coord{Experiment: seqNum, Processor: l.Proc, Realization: l.Start})
	if err != nil {
		return err
	}
	out := make([]float64, local.Rows()*local.Cols())
	size := int64(1)
	for k := int64(0); k < l.Count; {
		n := min(size, l.Count-k, window-k%window)
		t0 := time.Now()
		i := k
		for ; ; i++ {
			if i > 0 {
				if err = stream.NextRealization(); err != nil {
					break
				}
			}
			clear(out)
			if err = callRealization(r, stream, out); err != nil {
				err = fmt.Errorf("realization %d of %v: %w", l.Start+uint64(i), l, err)
				break
			}
			if i == k+n-1 {
				break
			}
			if err = local.Add(out); err != nil {
				break
			}
		}
		end := time.Now()
		elapsed := end.Sub(t0)
		if err != nil {
			// The realizations before the failure are in local: step
			// hears of them, and the lease ends with the failure
			// whatever step answers.
			if i > k {
				_, _ = step(Block{Last: i - 1, Size: i - k, End: end, Elapsed: elapsed})
			}
			return err
		}
		if err := local.AddTimed(out, elapsed); err != nil {
			return err
		}
		k += n
		b := Block{Last: k - 1, Size: n, End: end, Elapsed: elapsed, Cut: k%window == 0 || k == l.Count}
		if more, err := step(b); err != nil || !more {
			return err
		}
		switch {
		case elapsed < blockTarget && n == size:
			size *= 2
		case elapsed > 4*blockTarget && size > 1:
			size /= 2
		}
	}
	return nil
}

// Manaver recomputes the averaged results from the run image's base
// plus the per-worker snapshot files — the paper's manaver command. It
// delegates to the collector engine, which owns the merge.
func Manaver(workdir string) (stat.Report, error) {
	return collect.Manaver(workdir)
}

// callRealization invokes the user routine, converting a panic into an
// error so one bad realization cannot take down the process running it:
// the run (or the worker) fails cleanly with results saved, as when a
// realization returns an error.
func callRealization(r Realization, stream *rng.Stream, out []float64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: realization panicked: %v", p)
		}
	}()
	return r(stream, out)
}
