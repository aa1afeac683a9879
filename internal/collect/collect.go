// Package collect is the transport-agnostic collector engine — the
// paper's 0-th processor, factored out of the transports that feed it.
//
// The PARMONC design has exactly one statistical authority: workers
// push subtotal sample moments, the collector merges them by formula
// (5), periodically averages and saves results to files, and detects
// when the target sample volume is reached (Sec. 2.2, 3.2). Before this
// package existed that lifecycle was implemented twice — once in the
// in-process driver and once in the RPC coordinator — which is exactly
// the kind of duplicated parallel path where silent statistical drift
// hides (Lubachevsky, "Why The Results of Parallel and Serial Monte
// Carlo Simulations May Differ").
//
// Collector owns the full lifecycle:
//
//   - resume / restore from the run image (the paper's res = 1),
//   - snapshot validation at the merge boundary (every transport),
//   - per-worker registration, liveness and pruning,
//   - raw-sum (Accumulator) or Welford/Chan (StableAccumulator)
//     accumulation behind the shared stat.Moments contract,
//   - per-worker cumulative snapshots for post-mortem averaging,
//   - periodic averaging + atomic save — one run image (store.Image)
//     per save, the results files derived from it — target detection,
//     progress callbacks,
//   - built-in Metrics (atomic counters + optional event hook).
//
// # Concurrency
//
// The collector is sharded by worker: each worker index owns a shard
// holding its staging accumulator, liveness timestamp, sequence
// high-water mark, registration epoch and lease ledger, all guarded by
// a per-shard mutex. A push therefore only contends with other traffic
// from the same worker — the paper's Fig. 2 scalability claim requires
// the 0-th processor to stay off the workers' critical path, and a
// single global lock put it squarely on it. The global report is not
// maintained incrementally: whenever one is needed (save, finalize,
// status) the shards are folded into a fresh total in ascending
// worker-index order, base moments first — a fixed reduction tree (see
// internal/stat/shard.go), so the result is a deterministic function of
// what each worker pushed and reports stay reproducible no matter how
// pushes interleaved in real time. Saves serialize on their own lock
// and copy the shards in that same walk, so a slow fsync never stalls
// pushes.
//
// Transports stay thin: the goroutine driver (internal/core), the
// net/rpc coordinator (internal/cluster) and the discrete-event cluster
// simulator (internal/clustersim) all reduce to Register / Push /
// Finalize calls against one Collector. Collector is safe for
// concurrent use by multiple transport goroutines.
package collect

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parmonc/internal/obs"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// ErrFenced marks a push or heartbeat from a stale registration epoch
// or a revoked lease. A fenced sender is a zombie: the coordinator has
// already declared it dead and may have reissued its work, so its
// subtotals must not merge. Transports should acknowledge a fenced
// push (so the zombie stops retrying) and tell the worker to
// re-register into a fresh epoch. Test with errors.Is.
var ErrFenced = errors.New("collect: fenced (stale epoch or revoked lease)")

// Progress is the point-in-time view of the running statistics handed
// to Config.OnSave after every save — the paper's "control the absolute
// and relative stochastic errors during the simulation".
type Progress struct {
	N         int64         `json:"n"`               // total sample volume so far (incl. resumed)
	MaxAbsErr float64       `json:"max_abs_err"`     // ε_max over the matrix
	MaxRelErr float64       `json:"max_rel_err_pct"` // ρ_max over the matrix, percent
	MaxVar    float64       `json:"max_var"`         // σ̄²_max
	Elapsed   time.Duration `json:"elapsed_ns"`      // time since the collector was created
}

// Config tunes a Collector beyond what the run metadata carries.
type Config struct {
	// Resume merges the previous simulation's checkpoint found in the
	// store (the paper's res = 1). The previous run must have identical
	// matrix dimensions and a different experiments subsequence number.
	// Requires a non-nil store.
	Resume bool

	// Restore, if non-nil, rebuilds this collector from the run image
	// of the *same* run (same experiments subsequence) — shards, dedup
	// cursors and lease ledgers, not just the folded total — so a
	// restarted coordinator reproduces the exact reduction tree and its
	// reports stay bit-identical to an uninterrupted run. Restored
	// shards start inactive and their incomplete leases revoked:
	// pre-crash grants must fence, and the caller reissues the
	// uncomputed remainders. Mutually exclusive with Resume,
	// StableMoments and SaveWorkerSnapshots.
	Restore *store.Image

	// AverPeriod is the paper's peraver: pushes arriving at least this
	// long after the previous save trigger averaging + save. Zero or
	// negative disables periodic saves; Save and Finalize still work.
	AverPeriod time.Duration

	// SaveWorkerSnapshots writes each worker's cumulative moments on
	// every push, enabling post-mortem averaging with manaver.
	SaveWorkerSnapshots bool

	// StableMoments accumulates with the numerically stable
	// Welford/Chan algorithm instead of raw sums; see
	// stat.StableAccumulator.
	StableMoments bool

	// OnSave, if non-nil, is invoked after every save with a snapshot
	// of the running statistics. It runs with the collector's save lock
	// held (pushes keep flowing, further saves wait): it must not block
	// for long and must not call back into the Collector.
	OnSave func(Progress)

	// Stop, if non-nil, is the run's statistical completion rule (see
	// StopRule): it is evaluated with the freshly folded progress after
	// every averaging + save cycle, and on demand via EvalStop. The
	// first true latches; transports poll StopSatisfied alongside
	// TargetReached to decide when to wind the run down.
	Stop StopRule

	// Hook, if non-nil, receives one Event per collector occurrence
	// (push, reject, merge, save, prune) in addition to the atomic
	// counters. Events from one worker's pushes arrive in order, but
	// hooks fire concurrently across workers (under the originating
	// worker's shard lock), so a Hook must be safe for concurrent use,
	// keep it fast, and must not call back into the Collector.
	Hook Hook

	// Registry, if non-nil, is the obs registry the collector's
	// counters and save-latency histogram are registered in — this is
	// how a coordinator's /metrics endpoint sees the engine. Nil means
	// a private registry (metrics still work via Collector.Metrics,
	// they are just not exported anywhere).
	Registry *obs.Registry

	// Now supplies the clock; nil means time.Now. The cluster
	// simulator injects simulated time here.
	Now func() time.Time

	// Mono supplies the monotonic clock used for worker liveness
	// (Overdue). Nil derives it from Now when Now is set
	// (the simulator's virtual time is already jump-free), and
	// otherwise from time.Since on a monotonic base — so a wall-clock
	// step (NTP, VM migration) can never mass-prune healthy workers.
	Mono func() time.Duration
}

// Collector is the engine. Create with New; all methods are safe for
// concurrent use.
type Collector struct {
	dir  *store.Dir // nil: in-memory engine, nothing persisted
	meta store.RunMeta
	cfg  Config
	now  func() time.Time
	mono func() time.Duration

	// mu guards the shards and leaseIdx maps themselves; the state
	// inside a shard is guarded by that shard's own mutex. Lock order
	// where both are needed: mu before shard.mu.
	mu       sync.RWMutex
	shards   map[int]*shard
	leaseIdx map[uint64]int // lease ID → holder's worker index; grows for the collector's lifetime

	baseSnap stat.Snapshot // the run's base moments (resume or empty); immutable after New
	baseN    int64
	start    time.Time

	samples     atomic.Int64 // new samples merged this run (excludes the resumed base)
	activeCount atomic.Int64 // currently registered workers
	registered  atomic.Int64 // workers ever registered (stamped into saved metadata)

	// saveMu serializes averaging + save cycles (and the sticky first
	// save error) without blocking pushes: a save folds the shards into
	// a copy and does its I/O holding only saveMu. lastSave is the
	// UnixNano of the last save attempt, read by the push hot path to
	// decide whether a periodic save is due.
	saveMu   sync.Mutex
	saveErr  error // first save failure, sticky
	lastSave atomic.Int64
	saveDur  atomic.Int64 // wall time of the most recent save cycle, ns

	stopHit atomic.Bool // latched verdict of Config.Stop

	metrics *Metrics
}

// shard is one worker's slice of the collector: everything a push from
// that worker touches, guarded by one mutex so pushes from different
// workers never contend. The staging accumulator is cumulative for the
// collector's lifetime — a pruned worker's already-merged subtotals
// stay in the totals (they came from its own disjoint substream), so a
// shard is deactivated on prune/deregister, never discarded.
type shard struct {
	mu       sync.Mutex
	worker   int
	active   bool
	lastSeen time.Duration           // monotonic liveness offset (Collector.mono reading)
	lastSeq  uint64                  // highest applied push sequence for the current epoch
	epoch    uint64                  // current registration epoch (0: unfenced)
	raw      *stat.Accumulator       // staging moments (raw-sum mode)
	stable   *stat.StableAccumulator // staging moments (StableMoments mode)
	wacc     *stat.Accumulator       // cumulative per-worker snapshot (SaveWorkerSnapshots)
	leases   map[uint64]*leaseState  // leases granted to this worker, by ID
}

// leaseState is the collector-side ledger entry for one granted lease:
// under which epoch it was granted and how far the merged, acked prefix
// extends. done only ever grows, and only via pushes that passed the
// epoch fences — so Remainder(done) is exactly the work a reissue must
// cover. The holder is implicit: lease state lives in the holder's
// shard, and the global leaseIdx maps lease IDs to holders.
type leaseState struct {
	lease     Lease
	epoch     uint64
	done      int64
	revoked   bool
	completed bool
}

// New creates a collector for the run described by meta, persisting
// into dir. A nil dir yields a purely in-memory engine (used by the
// cluster simulator and benchmarks): resume is unavailable and saves
// only update statistics and metrics.
//
// With a store, New establishes the base moments — the previous run's
// fold when cfg.Resume is set, the image's base when restoring, empty
// otherwise — removes the previous run's worker-snapshot files unless
// restoring, then writes the run's first image (store.Image) over the
// previous one and appends to the experiment log.
func New(dir *store.Dir, meta store.RunMeta, cfg Config) (*Collector, error) {
	if meta.Nrow <= 0 || meta.Ncol <= 0 {
		return nil, fmt.Errorf("collect: invalid realization dimensions %d×%d", meta.Nrow, meta.Ncol)
	}
	if meta.Gamma <= 0 {
		return nil, fmt.Errorf("collect: confidence coefficient %g must be positive", meta.Gamma)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Collector{
		dir:      dir,
		meta:     meta,
		cfg:      cfg,
		now:      now,
		shards:   map[int]*shard{},
		leaseIdx: map[uint64]int{},
		metrics:  newMetrics(reg),
	}
	c.start = now()
	c.lastSave.Store(c.start.UnixNano())
	switch {
	case cfg.Mono != nil:
		c.mono = cfg.Mono
	case cfg.Now != nil:
		base := cfg.Now()
		c.mono = func() time.Duration { return cfg.Now().Sub(base) }
	default:
		base := time.Now()
		c.mono = func() time.Duration { return time.Since(base) }
	}

	if cfg.Restore != nil {
		switch {
		case cfg.Resume:
			return nil, fmt.Errorf("collect: Restore and Resume are mutually exclusive")
		case cfg.StableMoments:
			return nil, fmt.Errorf("collect: Restore requires raw moments (StableMoments unsupported)")
		case cfg.SaveWorkerSnapshots:
			return nil, fmt.Errorf("collect: Restore does not carry per-worker snapshot accumulators (SaveWorkerSnapshots unsupported)")
		}
	}

	base := stat.New(meta.Nrow, meta.Ncol)
	if cfg.Restore != nil {
		// The base moments come from the image: the interrupted run may
		// itself have started from a resume base, and the restored fold
		// must start from the same bits.
		if err := base.Merge(cfg.Restore.Base); err != nil {
			return nil, fmt.Errorf("collect: recovery base: %w", err)
		}
	} else if cfg.Resume {
		if dir == nil {
			return nil, fmt.Errorf("collect: resume requires a store")
		}
		snap, prevMeta, err := dir.LoadCheckpoint()
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("collect: resume requested but no previous simulation found in %s", dir.Root())
			}
			return nil, fmt.Errorf("collect: resume: %w", err)
		}
		if prevMeta.Nrow != meta.Nrow || prevMeta.Ncol != meta.Ncol {
			return nil, fmt.Errorf("collect: previous simulation is %d×%d, this run is %d×%d",
				prevMeta.Nrow, prevMeta.Ncol, meta.Nrow, meta.Ncol)
		}
		if prevMeta.SeqNum == meta.SeqNum {
			return nil, fmt.Errorf("collect: resume must use a different experiments subsequence number than the previous run (both are %d); base random numbers would repeat", meta.SeqNum)
		}
		if err := base.Merge(snap); err != nil {
			return nil, err
		}
	}
	// Worker snapshot files hold one run's subtotals on top of its base.
	// A resumed run's base already holds the previous run's, so files
	// left behind would be counted twice by Manaver.
	if cfg.Restore == nil && dir != nil {
		if err := dir.RemoveWorkerSnapshots(); err != nil {
			return nil, err
		}
	}
	c.baseSnap = base.Snapshot()
	c.baseN = base.N()
	c.metrics.resumedSamples.Set(float64(c.baseN))

	if cfg.Restore != nil {
		if err := c.restoreFrom(cfg.Restore); err != nil {
			return nil, err
		}
	}

	if dir != nil {
		// The run's first image replaces the previous run's: a fresh run
		// starts from an empty fold, a resumed one from the previous fold.
		img, _ := c.image()
		if err := dir.SaveImage(img); err != nil {
			return nil, err
		}
		if err := dir.AppendExperiment(meta, cfg.Resume || cfg.Restore != nil); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// shardFor returns worker w's shard, or nil if w was never registered.
func (c *Collector) shardFor(w int) *shard {
	c.mu.RLock()
	sh := c.shards[w]
	c.mu.RUnlock()
	return sh
}

// shardOrCreate returns worker w's shard, creating it on first
// registration.
func (c *Collector) shardOrCreate(w int) *shard {
	if sh := c.shardFor(w); sh != nil {
		return sh
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sh := c.shards[w]; sh != nil {
		return sh
	}
	sh := &shard{worker: w, leases: map[uint64]*leaseState{}}
	if c.cfg.StableMoments {
		sh.stable = stat.NewStable(c.meta.Nrow, c.meta.Ncol)
	} else {
		sh.raw = stat.New(c.meta.Nrow, c.meta.Ncol)
	}
	if c.cfg.SaveWorkerSnapshots {
		sh.wacc = stat.New(c.meta.Nrow, c.meta.Ncol)
	}
	c.shards[w] = sh
	return sh
}

// shardList snapshots the shard set in ascending worker order — the
// deterministic iteration order for folds, pruning and liveness scans.
func (c *Collector) shardList() []*shard {
	c.mu.RLock()
	out := make([]*shard, 0, len(c.shards))
	for _, sh := range c.shards {
		out = append(out, sh)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].worker < out[j].worker })
	return out
}

// Register adds worker w to the active set. Registering an already
// active worker only refreshes its liveness timestamp. Workers
// registered this way are unfenced (epoch 0): epoch checks do not apply
// to them. Transports that prune and re-admit workers should use
// RegisterEpoch instead.
func (c *Collector) Register(w int) {
	sh := c.shardOrCreate(w)
	sh.mu.Lock()
	c.registerShard(sh)
	sh.mu.Unlock()
}

// registerShard activates sh (idempotently) and refreshes its liveness.
// Called with sh.mu held.
func (c *Collector) registerShard(sh *shard) {
	if !sh.active {
		sh.active = true
		c.activeCount.Add(1)
		c.registered.Add(1)
		c.metrics.registered.Add(1)
	}
	sh.lastSeen = c.mono()
}

// RegisterEpoch admits worker w under registration epoch epoch (epochs
// start at 1 and bump each time a pruned index is re-admitted). Moving
// to a new epoch resets the worker's push-sequence space — the fresh
// session restarts its sequence numbers at 1 — while the epoch fence
// keeps the old session's stale retries out; that closes the dedup hole
// a bare sequence reset would open.
func (c *Collector) RegisterEpoch(w int, epoch uint64) {
	sh := c.shardOrCreate(w)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.registerShard(sh)
	if sh.epoch != epoch {
		sh.epoch = epoch
		sh.lastSeq = 0
	}
}

// Epoch returns worker w's current registration epoch (0 if unfenced).
func (c *Collector) Epoch(w int) uint64 {
	sh := c.shardFor(w)
	if sh == nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.epoch
}

// Deregister removes worker w from the active set (the worker detached
// voluntarily). It errors for a worker that is not active.
func (c *Collector) Deregister(w int) error {
	sh := c.shardFor(w)
	if sh == nil {
		return fmt.Errorf("collect: deregister of unknown worker %d", w)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.active {
		return fmt.Errorf("collect: deregister of unknown worker %d", w)
	}
	sh.active = false
	sh.lastSeq = 0
	c.activeCount.Add(-1)
	return nil
}

// LastSeq returns the highest push sequence number applied for worker
// w (0 if the worker has only sent unsequenced pushes, or none).
func (c *Collector) LastSeq(w int) uint64 {
	sh := c.shardFor(w)
	if sh == nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lastSeq
}

// NoteTransport folds transport-level resilience counters reported by a
// detaching worker (RPC retries and reconnects it performed) into the
// collector metrics, so a job's full delivery story — including what
// happened on the worker side of the wire — is visible in one place.
func (c *Collector) NoteTransport(retries, reconnects int64) {
	if retries > 0 {
		c.metrics.workerRetries.Add(retries)
	}
	if reconnects > 0 {
		c.metrics.workerReconnects.Add(reconnects)
	}
}

// IsActive reports whether worker w is currently registered.
func (c *Collector) IsActive(w int) bool {
	sh := c.shardFor(w)
	if sh == nil {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.active
}

// Active returns the number of currently registered workers.
func (c *Collector) Active() int {
	return int(c.activeCount.Load())
}

// pruneShard deactivates sh, revokes its leases, and emits the prune
// event. The shard's epoch survives so a comeback can be detected (and
// fenced) by RegisterEpoch with a bumped epoch. Called with sh.mu held.
func (c *Collector) pruneShard(sh *shard) {
	sh.active = false
	sh.lastSeq = 0
	c.activeCount.Add(-1)
	for _, ls := range sh.leases {
		if !ls.completed {
			ls.revoked = true
		}
	}
	c.metrics.pruned.Add(1)
	c.event(Event{Kind: EventPrune, Worker: sh.worker})
}

// Overdue returns the active workers whose last sign of life (register,
// push, or Touch) is older than age, measured on the monotonic clock.
func (c *Collector) Overdue(age time.Duration) []int {
	now := c.mono()
	var out []int
	for _, sh := range c.shardList() {
		sh.mu.Lock()
		if sh.active && now-sh.lastSeen > age {
			out = append(out, sh.worker)
		}
		sh.mu.Unlock()
	}
	return out
}

// Touch records a heartbeat from worker w under epoch: proof of life
// with no statistical payload. A heartbeat from an inactive worker or a
// stale epoch is fenced (counted, ErrFenced) — the zombie must
// re-register before it is trusted again.
func (c *Collector) Touch(w int, epoch uint64) error {
	sh := c.shardFor(w)
	if sh != nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.active && (epoch == 0 || epoch == sh.epoch) {
			sh.lastSeen = c.mono()
			return nil
		}
	}
	c.metrics.staleEpoch.Add(1)
	c.event(Event{Kind: EventStale, Worker: w})
	return fmt.Errorf("collect: heartbeat from worker %d epoch %d: %w", w, epoch, ErrFenced)
}

// GrantLease records that worker w (under its current epoch) holds l.
// The lease ID must be unique for the collector's lifetime; the grant
// is fenced to the worker's epoch at grant time.
func (c *Collector) GrantLease(w int, l Lease) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[w]
	if sh == nil {
		return fmt.Errorf("collect: lease grant to unknown worker %d", w)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.active {
		return fmt.Errorf("collect: lease grant to unknown worker %d", w)
	}
	if l.ID == 0 {
		return fmt.Errorf("collect: lease grant without an ID")
	}
	if _, dup := c.leaseIdx[l.ID]; dup {
		return fmt.Errorf("collect: duplicate lease ID %d", l.ID)
	}
	if l.Count <= 0 {
		return fmt.Errorf("collect: lease %d has no realizations", l.ID)
	}
	sh.leases[l.ID] = &leaseState{lease: l, epoch: sh.epoch}
	c.leaseIdx[l.ID] = w
	return nil
}

// RevokeWorker forcibly removes worker w — the supervision verdict for
// a worker that blew its heartbeat miss budget — and returns the
// uncomputed remainders of the leases it held, ready to be reissued
// under fresh IDs. Already-completed leases contribute nothing; the
// merged prefix of an incomplete lease is excluded (it is already in
// the totals and must not be recomputed).
func (c *Collector) RevokeWorker(w int) []Lease {
	sh := c.shardFor(w)
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.active {
		return nil
	}
	rem := remainders(sh)
	c.pruneShard(sh)
	return rem
}

// ReclaimLeases revokes worker w's outstanding incomplete leases
// without deregistering it, and returns their uncomputed remainders.
// It makes lease grants idempotent at the transport layer: a worker
// asking for work holds no lease it knows about, so any lease the
// ledger still shows it holding is a grant whose reply was lost in
// flight — requeue its remainder and the worker gets the same window
// back under a fresh ID instead of leaking the original grant forever.
func (c *Collector) ReclaimLeases(w int) []Lease {
	sh := c.shardFor(w)
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.active {
		return nil
	}
	rem := remainders(sh)
	for _, ls := range sh.leases {
		if !ls.completed {
			ls.revoked = true
		}
	}
	return rem
}

// ReleaseWorker is the voluntary-detach counterpart of RevokeWorker: the
// worker said goodbye cleanly (its final subtotals are flushed), so it
// is deregistered without counting as pruned, and the remainders of any
// leases it abandoned mid-window are returned for reissue.
func (c *Collector) ReleaseWorker(w int) ([]Lease, error) {
	sh := c.shardFor(w)
	if sh == nil {
		return nil, fmt.Errorf("collect: deregister of unknown worker %d", w)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.active {
		return nil, fmt.Errorf("collect: deregister of unknown worker %d", w)
	}
	rem := remainders(sh)
	sh.active = false
	sh.lastSeq = 0
	c.activeCount.Add(-1)
	for _, ls := range sh.leases {
		if !ls.completed {
			ls.revoked = true
		}
	}
	return rem, nil
}

// remainders collects the uncomputed tails of sh's live leases in
// deterministic (Proc, Start) order. Called with sh.mu held.
func remainders(sh *shard) []Lease {
	var rem []Lease
	for _, ls := range sh.leases {
		if !ls.completed && !ls.revoked {
			if r := ls.lease.Remainder(ls.done); r.Count > 0 {
				rem = append(rem, r)
			}
		}
	}
	sort.Slice(rem, func(i, j int) bool {
		if rem[i].Proc != rem[j].Proc {
			return rem[i].Proc < rem[j].Proc
		}
		return rem[i].Start < rem[j].Start
	})
	return rem
}

// LeaseProgress reports how many realizations of lease id have been
// merged, out of how many granted.
func (c *Collector) LeaseProgress(id uint64) (done, count int64, ok bool) {
	c.mu.RLock()
	w, known := c.leaseIdx[id]
	var sh *shard
	if known {
		sh = c.shards[w]
	}
	c.mu.RUnlock()
	if sh == nil {
		return 0, 0, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.leases[id]
	if ls == nil {
		return 0, 0, false
	}
	return ls.done, ls.lease.Count, true
}

// Push merges one subtotal snapshot from worker w — formula (5). The
// snapshot is validated first, for every transport: a malformed or
// wrong-dimension push is rejected with an error and cannot corrupt the
// totals. Push also handles per-worker snapshot persistence and
// periodic averaging + save; a save failure is returned (and remembered
// for Finalize).
//
// snap is borrowed, see stat.Snapshot: the collector reads it before
// returning, never writes to it and retains nothing, on every outcome.
func (c *Collector) Push(w int, snap stat.Snapshot) error {
	return c.PushFrom(PushOrigin{Worker: w}, snap)
}

// PushOrigin identifies where a push came from and what it claims to
// advance: the worker index, its registration epoch (0: unfenced), its
// delivery sequence number (0: unsequenced), and — when the push
// belongs to a lease — the lease ID plus the cumulative count of that
// lease's realizations completed once this snapshot merges.
//
// Seq is the idempotency key of an at-least-once transport: sequence
// numbers start at 1 and increase monotonically per worker, and a
// snapshot whose sequence number has already been applied is
// acknowledged without merging (counted as a redelivery), so a
// transport may retry a push whose reply was lost without
// double-counting moments — at-least-once delivery, exactly-once merge.
// The in-process transport needs no idempotency and leaves it zero.
type PushOrigin struct {
	Worker int
	Epoch  uint64
	Seq    uint64
	Lease  uint64
	Done   int64
}

// PushFrom is the full merge entry point. Fencing happens before any
// state changes: a push from a pruned worker or a stale epoch, or
// against a revoked or foreign lease, returns ErrFenced (wrapped) and
// is counted as stale — it must be acknowledged but never merged, which
// is what closes the zombie-after-sequence-reset dedup hole. Lease
// pushes additionally keep the per-lease done ledger: Done must advance
// by exactly the snapshot's sample volume, so the ledger always equals
// the merged prefix of the window.
//
// The push only takes the sender's shard lock, so pushes from different
// workers run concurrently; the snapshot merges into the worker's
// staging accumulator and reaches the global report at the next fold.
// snap is borrowed, see stat.Snapshot.
func (c *Collector) PushFrom(o PushOrigin, snap stat.Snapshot) error {
	w := o.Worker
	c.metrics.pushes.Add(1)
	c.mu.RLock()
	sh := c.shards[w]
	var leaseHolder int
	leaseKnown := false
	if o.Lease != 0 {
		leaseHolder, leaseKnown = c.leaseIdx[o.Lease]
	}
	c.mu.RUnlock()
	if sh == nil {
		c.event(Event{Kind: EventPush, Worker: w, Samples: snap.N})
		if o.Epoch != 0 {
			return c.fenced(o, snap, "push from pruned worker")
		}
		c.metrics.rejected.Add(1)
		c.event(Event{Kind: EventReject, Worker: w, Samples: snap.N})
		return fmt.Errorf("collect: push from unknown worker %d", w)
	}
	sh.mu.Lock()
	saveDue, err := c.pushShard(sh, o, snap, leaseHolder, leaseKnown)
	sh.mu.Unlock()
	if saveDue {
		return c.maybeSave()
	}
	return err
}

// pushShard is the per-worker body of PushFrom. Called with sh.mu held;
// it never takes c.mu or saveMu (the lease holder was resolved under
// c.mu before the shard lock, and a due periodic save is signalled to
// the caller to run after the shard unlocks).
// snap is borrowed, see stat.Snapshot.
func (c *Collector) pushShard(sh *shard, o PushOrigin, snap stat.Snapshot, leaseHolder int, leaseKnown bool) (saveDue bool, err error) {
	w := o.Worker
	c.event(Event{Kind: EventPush, Worker: w, Samples: snap.N})
	if !sh.active {
		if o.Epoch != 0 {
			return false, c.fenced(o, snap, "push from pruned worker")
		}
		c.metrics.rejected.Add(1)
		c.event(Event{Kind: EventReject, Worker: w, Samples: snap.N})
		return false, fmt.Errorf("collect: push from unknown worker %d", w)
	}
	if o.Epoch != 0 && o.Epoch != sh.epoch {
		return false, c.fenced(o, snap, "stale epoch")
	}
	sh.lastSeen = c.mono()
	if o.Seq != 0 && o.Seq <= sh.lastSeq {
		c.metrics.redelivered.Add(1)
		c.event(Event{Kind: EventDuplicate, Worker: w, Samples: snap.N})
		return false, nil
	}
	var ls *leaseState
	if o.Lease != 0 {
		ls = sh.leases[o.Lease]
		switch {
		case ls == nil && leaseKnown && leaseHolder != w:
			return false, c.fenced(o, snap, "lease held by another worker session")
		case ls == nil:
			return false, c.fenced(o, snap, "unknown lease")
		case ls.revoked:
			return false, c.fenced(o, snap, "revoked lease")
		case o.Epoch != 0 && ls.epoch != o.Epoch:
			return false, c.fenced(o, snap, "lease held by another worker session")
		}
		if o.Done <= ls.done || o.Done > ls.lease.Count || o.Done-ls.done != snap.N {
			c.metrics.rejected.Add(1)
			c.event(Event{Kind: EventReject, Worker: w, Samples: snap.N})
			return false, fmt.Errorf("collect: worker %d lease %d: done %d (have %d, snapshot volume %d) is out of range",
				w, o.Lease, o.Done, ls.done, snap.N)
		}
	}
	if verr := c.validateSnap(snap); verr != nil {
		c.metrics.rejected.Add(1)
		c.metrics.pushesInvalid.Add(1)
		c.event(Event{Kind: EventInvalid, Worker: w, Samples: snap.N})
		return false, fmt.Errorf("collect: rejecting snapshot from worker %d: %w", w, verr)
	}
	// The snapshot is validated exactly once, above; the staging merge
	// only re-checks dimensions.
	if sh.raw != nil {
		err = sh.raw.MergeTrusted(snap)
	} else {
		err = sh.stable.MergeTrusted(snap)
	}
	if err != nil {
		c.metrics.rejected.Add(1)
		c.event(Event{Kind: EventReject, Worker: w, Samples: snap.N})
		return false, err
	}
	c.samples.Add(snap.N)
	c.metrics.merges.Add(1)
	c.event(Event{Kind: EventMerge, Worker: w, Samples: snap.N})
	if o.Seq != 0 {
		sh.lastSeq = o.Seq
	}
	if ls != nil {
		ls.done = o.Done
		if ls.done == ls.lease.Count {
			ls.completed = true
			c.metrics.leasesCompleted.Add(1)
			c.event(Event{Kind: EventLeaseComplete, Worker: w, Samples: ls.lease.Count, Seq: o.Lease})
		}
	}

	if sh.wacc != nil {
		if err := sh.wacc.MergeTrusted(snap); err != nil {
			return false, err
		}
		if c.dir != nil {
			// sh.mu keeps wacc still for the synchronous write.
			if err := c.dir.SaveWorkerSnapshot(w, sh.wacc.View(), c.stampedMeta()); err != nil {
				return false, err
			}
		}
		c.metrics.workerSnapshots.Add(1)
	}

	saveDue = c.cfg.AverPeriod > 0 &&
		c.now().Sub(time.Unix(0, c.lastSave.Load())) >= c.cfg.AverPeriod
	return saveDue, nil
}

// fenced counts and reports a fenced push.
func (c *Collector) fenced(o PushOrigin, snap stat.Snapshot, why string) error {
	c.metrics.staleEpoch.Add(1)
	c.event(Event{Kind: EventStale, Worker: o.Worker, Samples: snap.N, Seq: o.Lease})
	return fmt.Errorf("collect: worker %d epoch %d lease %d: %s: %w", o.Worker, o.Epoch, o.Lease, why, ErrFenced)
}

// validateSnap rejects snapshots that are internally inconsistent
// (NaN/Inf or negative moment sums, mismatched slice lengths, negative
// volume) or have the wrong dimensions for this run.
func (c *Collector) validateSnap(snap stat.Snapshot) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	if snap.Nrow != c.meta.Nrow || snap.Ncol != c.meta.Ncol {
		return fmt.Errorf("stat: snapshot is %d×%d, run is %d×%d", snap.Nrow, snap.Ncol, c.meta.Nrow, c.meta.Ncol)
	}
	return nil
}

// stampedMeta returns the run metadata with the worker count updated to
// what the collector has actually seen (the RPC transport hands out
// indices dynamically, so the configured count can be stale).
func (c *Collector) stampedMeta() store.RunMeta {
	meta := c.meta
	if r := int(c.registered.Load()); r > meta.Workers {
		meta.Workers = r
	}
	return meta
}

// SaveLag reports how long the most recent averaging + save cycle
// took (zero before the first one). A collector whose saves take
// longer than its AverPeriod can never catch up on its own; callers
// use this signal to apply backpressure upstream — the run manager
// turns it into a soft RetryAfter on batched pushes so fleet workers
// stretch their push cadence instead of piling more work on.
func (c *Collector) SaveLag() time.Duration {
	return time.Duration(c.saveDur.Load())
}

// Save forces an averaging + save cycle regardless of AverPeriod.
func (c *Collector) Save() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	_, err := c.saveHolding()
	return err
}

// maybeSave runs a periodic save if one is still due — the push that
// noticed the elapsed AverPeriod calls this after releasing its shard
// lock, and the double check under saveMu collapses the herd of pushes
// that noticed simultaneously into one save.
func (c *Collector) maybeSave() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	if c.now().Sub(time.Unix(0, c.lastSave.Load())) < c.cfg.AverPeriod {
		return nil
	}
	_, err := c.saveHolding()
	return err
}

// saveHolding performs one averaging + save cycle: one capture of the
// run image, and the report, results files and checkpoint all derived
// from it. Called with saveMu held; pushes are not blocked (the capture
// takes each shard lock only briefly, and the file I/O runs on the
// copies).
func (c *Collector) saveHolding() (stat.Report, error) {
	var img store.Image
	var total stat.Moments
	if c.dir != nil {
		img, total = c.image()
	} else {
		total = c.capture(nil)
	}
	t0 := c.now()
	rep := total.Report(c.meta.Gamma)
	if c.cfg.Stop != nil && !c.stopHit.Load() && c.cfg.Stop(Progress{
		N:         rep.N,
		MaxAbsErr: rep.MaxAbsErr,
		MaxRelErr: rep.MaxRelErr,
		MaxVar:    rep.MaxVar,
		Elapsed:   t0.Sub(c.start),
	}) {
		c.stopHit.Store(true)
	}
	var err error
	if c.dir != nil {
		if e := c.dir.SaveResults(rep, img.Meta); e != nil {
			err = e
		}
		if e := c.dir.SaveImage(img); e != nil && err == nil {
			err = e
		}
	}
	now := c.now()
	c.lastSave.Store(now.UnixNano())
	elapsed := now.Sub(t0)
	c.saveDur.Store(int64(elapsed)) // slow failing saves count too
	if err != nil {
		if c.saveErr == nil {
			c.saveErr = err
		}
		return rep, err
	}
	c.metrics.saves.Add(1)
	c.metrics.saveNanos.Add(int64(elapsed))
	c.metrics.saveSeconds.Observe(elapsed.Seconds())
	c.event(Event{Kind: EventSave, Samples: rep.N, Elapsed: elapsed})
	if c.cfg.OnSave != nil {
		c.cfg.OnSave(Progress{
			N:         rep.N,
			MaxAbsErr: rep.MaxAbsErr,
			MaxRelErr: rep.MaxRelErr,
			MaxVar:    rep.MaxVar,
			Elapsed:   now.Sub(c.start),
		})
	}
	return rep, nil
}

// Finalize performs the final averaging + save and returns the merged
// report. If any save — this one or an earlier periodic one — failed,
// Finalize returns that first error instead.
func (c *Collector) Finalize() (stat.Report, error) {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	rep, _ := c.saveHolding() // error is sticky in saveErr
	if c.saveErr != nil {
		return stat.Report{}, c.saveErr
	}
	return rep, nil
}

// Report computes the current derived statistics without saving.
func (c *Collector) Report() stat.Report {
	return c.capture(nil).Report(c.meta.Gamma)
}

// Progress returns the current progress snapshot without saving.
func (c *Collector) Progress() Progress {
	rep := c.capture(nil).Report(c.meta.Gamma)
	return Progress{
		N:         rep.N,
		MaxAbsErr: rep.MaxAbsErr,
		MaxRelErr: rep.MaxRelErr,
		MaxVar:    rep.MaxVar,
		Elapsed:   c.now().Sub(c.start),
	}
}

// N returns the current total sample volume, including any resumed
// base.
func (c *Collector) N() int64 {
	return c.baseN + c.samples.Load()
}

// BaseN returns the sample volume the run started from (zero for a
// fresh run, the previous run's volume after a resume).
func (c *Collector) BaseN() int64 {
	return c.baseN
}

// TargetReached reports whether the run's new-sample target (meta
// MaxSV) has been met. A non-positive target never completes — the
// paper's "endless simulation" mode.
func (c *Collector) TargetReached() bool {
	return c.meta.MaxSV > 0 && c.samples.Load() >= c.meta.MaxSV
}

// Metrics returns a consistent snapshot of the collector's counters.
func (c *Collector) Metrics() MetricsSnapshot {
	return c.metrics.snapshot()
}

// event delivers e to the configured hook, if any. Usually called with
// the originating shard's lock held; hooks must be concurrency-safe
// (see Config.Hook).
func (c *Collector) event(e Event) {
	if c.cfg.Hook != nil {
		c.cfg.Hook(e)
	}
}
