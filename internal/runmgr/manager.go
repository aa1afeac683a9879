// Package runmgr hosts many concurrent simulation runs on one
// coordinator process — the serving layer of the library.
//
// PARMONC was built as a shared facility: many users submit independent
// Monte Carlo applications to one cluster, and the library distributes,
// averages and resumes each of them. The single-run transports
// (internal/core, internal/cluster) execute exactly one simulation per
// process; this package adds the multi-tenant surface on top of the
// same collector engine: a run registry with a lifecycle state machine
// (queued → admitted → running → done/failed/canceled), a bounded
// admission queue with per-run realization budgets, and a fair-share
// scheduler that hands out collect.PartitionLeases capacity across the
// active runs on one shared worker fleet.
//
// # Isolation and bit-identity
//
// Each admitted run owns a private collect.Collector, its own data
// directory (DataRoot/<runID>/parmonc_data) and its own run-event
// journal, so its report is derived from exactly the state an isolated
// single-run execution would hold. The scheduling trick that keeps the
// report *bit-identical* no matter how the fleet interleaves runs is to
// register processor subsequences — not physical workers — as the
// collector's shards: lease i of a run lives on processor subsequence
// i+1 (collect.PartitionLeases), and every push for that lease merges
// into shard i+1, whichever fleet worker happened to execute it.
// Realizations are substream-addressed (Mertens: concurrent simulations
// must keep their RNG substreams disjoint), workers never flush partial
// push windows (an abandoned window is recomputed from the last acked
// boundary), and the per-lease done ledger admits windows strictly in
// order — so each shard receives the same byte-identical snapshot
// sequence as a serial run, and the ascending-shard fold (see
// internal/stat/shard.go) produces the same report bits (Lubachevsky:
// parallel execution must not silently change results).
package runmgr

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
	"parmonc/internal/workload"
)

// State is a run's position in the lifecycle state machine:
//
//	queued ──→ admitted ──→ running ──→ done
//	   │           │            ├─────→ failed
//	   └───────────┴────────────┴─────→ canceled
type State string

const (
	StateQueued   State = "queued"   // accepted, waiting for an active slot
	StateAdmitted State = "admitted" // slot held: collector, directory and leases exist
	StateRunning  State = "running"  // at least one lease granted to the fleet
	StateDone     State = "done"     // target reached (or stop rule fired), report final
	StateFailed   State = "failed"   // admission or a realization failed; partial results saved
	StateCanceled State = "canceled" // canceled by request or service shutdown
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Errors mapped to HTTP statuses by the control API.
var (
	ErrQueueFull = errors.New("runmgr: admission queue full")
	ErrNotFound  = errors.New("runmgr: no such run")
	ErrNotDone   = errors.New("runmgr: run has no final report yet")
	ErrTerminal  = errors.New("runmgr: run already finished")
	ErrClosed    = errors.New("runmgr: manager is shut down")
)

// Config tunes a Manager. Zero values select documented defaults.
type Config struct {
	// DataRoot is the directory that receives one subdirectory per run
	// (DataRoot/<runID>/parmonc_data, the standard store layout).
	// Required.
	DataRoot string

	// MaxActive bounds how many runs hold collectors and receive fleet
	// capacity at once; further submissions queue. Default 4.
	MaxActive int

	// MaxQueued bounds the admission queue; a submission beyond it is
	// rejected with ErrQueueFull. Default 16.
	MaxQueued int

	// MaxRealizations is the per-run realization budget: a submission
	// asking for more is rejected at admission. Default 100_000_000.
	MaxRealizations int64

	// AverPeriod is every run's collector averaging/save period
	// (collect.Config.AverPeriod). Zero disables periodic saves — runs
	// still save at completion.
	AverPeriod time.Duration

	// LeaseTimeout, when positive, reissues a granted lease whose
	// holder has not pushed for this long: the remainder goes back to
	// the front of the run's queue and the stale grant is fenced, so a
	// hung fleet worker cannot strand a run. Zero disables the reaper
	// (a detaching worker still returns its leases).
	LeaseTimeout time.Duration

	// JournalMaxBytes is the size-rotation cap of each run's event
	// journal (obs.OpenJournalRotating). Zero disables rotation.
	JournalMaxBytes int64

	// PullWait caps how long an ungranted fleet Pull may be held open
	// server-side waiting for work (long-poll). Each pull carries the
	// worker's own ask (PullArgs.Wait) and the effective hold is the
	// smaller of the two. Zero selects 30s; negative is an error.
	PullWait time.Duration

	// Params are the parallel RNG leap exponents shared by every run;
	// the zero value means rng.DefaultParams. Runs are kept disjoint by
	// experiment subsequence number, so one parameter set serves all.
	Params rng.Params

	// Registry, if non-nil, receives the service-level series
	// (parmonc_runs_*, worker/queue gauges) and the per-run labeled
	// parmonc_run_* gauges. Each run's collector keeps its own private
	// registry — two runs must never share fixed-name counters.
	Registry *obs.Registry

	// Journal, if non-nil, receives service-level events (run_submit,
	// run_admit, worker_attach, ...). Each run additionally writes its
	// own journal under its data directory.
	Journal *obs.Journal

	// Now supplies the clock; nil means time.Now.
	Now func() time.Time

	// Recover selects how startup recovery treats corrupt durable state
	// found under DataRoot: RecoverStrict (the default) refuses to
	// start, RecoverDiscard quarantines the file and continues.
	Recover RecoverPolicy
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.DataRoot == "" {
		return cfg, errors.New("runmgr: Config.DataRoot is required")
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 4
	}
	if cfg.MaxActive < 0 {
		return cfg, fmt.Errorf("runmgr: negative MaxActive %d", cfg.MaxActive)
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 16
	}
	if cfg.MaxQueued < 0 {
		return cfg, fmt.Errorf("runmgr: negative MaxQueued %d", cfg.MaxQueued)
	}
	if cfg.MaxRealizations == 0 {
		cfg.MaxRealizations = 100_000_000
	}
	if cfg.MaxRealizations < 0 {
		return cfg, fmt.Errorf("runmgr: negative MaxRealizations %d", cfg.MaxRealizations)
	}
	if cfg.PullWait == 0 {
		cfg.PullWait = 30 * time.Second
	}
	if cfg.PullWait < 0 {
		return cfg, fmt.Errorf("runmgr: negative Config.PullWait %v", cfg.PullWait)
	}
	if cfg.Params == (rng.Params{}) {
		cfg.Params = rng.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return cfg, err
	}
	switch cfg.Recover {
	case "":
		cfg.Recover = RecoverStrict
	case RecoverStrict, RecoverDiscard:
	default:
		return cfg, fmt.Errorf("runmgr: unknown recover policy %q (want %q or %q)", cfg.Recover, RecoverStrict, RecoverDiscard)
	}
	return cfg, nil
}

// Submission describes one run a client asks the service to execute.
// It is the JSON body of POST /runs.
type Submission struct {
	// Scenario selects and parameterizes a registered workload.
	Scenario workload.Spec `json:"scenario"`

	// MaxSamples is the run's realization target (the paper's maxsv).
	// Required, positive, and at most the service's MaxRealizations
	// budget — a hosted service cannot offer the paper's "endless
	// simulation" mode.
	MaxSamples int64 `json:"maxsv"`

	// SeqNum is the experiments subsequence the run draws its base
	// random numbers from. Zero auto-assigns the lowest unused number
	// (starting at 1 — subsequence 0 always means "auto" here); an
	// explicit number already taken by another run is rejected, so two
	// hosted runs can never share base random numbers.
	SeqNum uint64 `json:"seqnum,omitempty"`

	// PassEvery is how many realizations a fleet worker simulates
	// between subtotal pushes. Default 100.
	PassEvery int64 `json:"pass_every,omitempty"`

	// LeaseSize is the realization-window size of the run's substream
	// leases. Zero picks a PassEvery-aligned size splitting the run
	// into roughly 16 leases.
	LeaseSize int64 `json:"lease_size,omitempty"`

	// Gamma is the confidence coefficient of the error matrices.
	// Default 3 (λ = 0.997).
	Gamma float64 `json:"gamma,omitempty"`

	// TargetRelErr, when positive, completes the run early once the
	// maximal relative error drops below this bound (percent) — the
	// collect.TargetRelErr stop rule as a per-run completion criterion.
	TargetRelErr float64 `json:"target_rel_err_pct,omitempty"`

	// MinSamples is the floor below which TargetRelErr never fires
	// (<= 0 selects the rule's default of 1000).
	MinSamples int64 `json:"min_samples,omitempty"`
}

// defaultLeaseSize mirrors the cluster transport's heuristic: a
// PassEvery-aligned lease size splitting the run into roughly 16
// leases, so losing a worker loses little but grant traffic stays
// negligible next to pushes.
func defaultLeaseSize(maxSamples, passEvery int64) int64 {
	k := maxSamples / (16 * passEvery)
	if k < 1 {
		k = 1
	}
	return passEvery * k
}

// grant is one outstanding lease: which fleet worker holds it and when
// it last pushed (monotonic clock, for the reissue reaper).
type grant struct {
	lease      collect.Lease
	worker     int
	lastActive time.Duration
}

// run is the manager-side state of one hosted simulation.
type run struct {
	id  string
	seq int // admission order, the fair-share tie-breaker

	sub         Submission // normalized: all defaults resolved
	workloadN   string
	fingerprint string
	scenario    string // canonical compact-JSON spec
	nrow, ncol  int

	state  State
	errMsg string

	dir     string
	eng     *collect.Collector
	journal *obs.Journal

	pending     []collect.Lease          // not yet granted (front = next)
	outstanding map[uint64]*grant        // granted, incomplete, by lease ID
	granted     map[uint64]collect.Lease // every grant ever made, by ID
	nextLease   uint64
	leaseTotal  int
	nGranted    int64
	nCompleted  int64
	nReissued   int64
	nNacks      int64
	incompat    map[int]bool // fleet workers that cannot serve this scenario

	submitted, started, finished time.Time

	rep       stat.Report
	hasReport bool

	// restoreImg is the run image pre-loaded at startup for a run
	// that survived a restart; admission consumes it (Config.Restore)
	// and clears it.
	restoreImg *store.Image
}

// fleetWorker is one attached fleet member.
type fleetWorker struct {
	id       int
	clientID string
	hostname string
}

// Manager is the multi-run coordinator. All exported methods are safe
// for concurrent use.
type Manager struct {
	cfg Config

	mu         sync.Mutex
	runs       map[string]*run
	order      []*run // submission order
	queue      []*run // admission queue (front = next)
	active     int
	nextRunID  int
	usedSeq    map[uint64]string // experiment subsequence → run ID
	workers    map[int]*fleetWorker
	byClient   map[string]int
	nextWorker int
	closed     bool
	draining   bool // Shutdown in progress: pulls see Stop, pushes still land

	// Durable service state. The WAL and the per-run manifests survive
	// the process; epoch is this incarnation's service epoch (strictly
	// increasing across restarts — the fence against zombie grants).
	wal     *store.WAL
	epoch   uint64
	recInfo RecoveryInfo

	inflight   atomic.Int64 // fleet pushes currently executing (drain barrier)
	recovering atomic.Bool  // startup recovery replaying: control API answers 503

	// pullWake is the long-poll wake signal: parked ungranted pulls
	// select on the current channel, and any event that could make work
	// grantable (submission, lease reissue, freed capacity, shutdown)
	// closes and replaces it under m.mu — a lost-wakeup-free broadcast.
	pullWake chan struct{}
	parked   atomic.Int64 // pulls currently parked in the long-poll
	pullBusy atomic.Int64 // Pull handlers in flight (shutdown drain barrier)

	fleetCalls atomic.Int64 // fleet RPCs of any kind (benchmarks read this)
	pullCalls  atomic.Int64 // Pull RPCs alone (idle-rate accounting)

	mono func() time.Duration

	// fleet listener state (ServeFleet)
	lnMu     sync.Mutex
	lnClosed bool
	lns      []interface{ Close() error }
	conns    map[interface{ Close() error }]struct{}
	wg       sync.WaitGroup

	reaperStop chan struct{}
	reaperDone chan struct{}

	mSubmitted *obs.Counter
	mRejected  *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mCanceled  *obs.Counter
	mReissued  *obs.Counter

	mStale *obs.Counter // fleet calls carrying a previous incarnation's epoch
	hBatch *obs.Histogram

	mRecCorrupt  *obs.Counter
	mRecResumed  *obs.Counter
	mRecRequeued *obs.Counter
	mRecTerminal *obs.Counter
	mRecReplayed *obs.Counter
}

// New creates a Manager. Close releases it.
func New(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		runs:     map[string]*run{},
		usedSeq:  map[uint64]string{},
		workers:  map[int]*fleetWorker{},
		byClient: map[string]int{},
		conns:    map[interface{ Close() error }]struct{}{},
		pullWake: make(chan struct{}),
	}
	base := m.now()
	m.mono = func() time.Duration { return m.now().Sub(base) }
	if reg := cfg.Registry; reg != nil {
		m.mSubmitted = reg.Counter("parmonc_runs_submitted_total", "Runs accepted into the service.")
		m.mRejected = reg.Counter("parmonc_runs_rejected_total", "Submissions rejected (validation, budget, full queue).")
		m.mDone = reg.Counter("parmonc_runs_finished_total", "Runs finished, by final state.", obs.L("state", "done"))
		m.mFailed = reg.Counter("parmonc_runs_finished_total", "Runs finished, by final state.", obs.L("state", "failed"))
		m.mCanceled = reg.Counter("parmonc_runs_finished_total", "Runs finished, by final state.", obs.L("state", "canceled"))
		m.mReissued = reg.Counter("parmonc_run_leases_reissued_total", "Leases reissued after worker detach, nack or timeout.")
		reg.GaugeFunc("parmonc_runs_active", "Runs currently holding an active slot.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.active)
		})
		reg.GaugeFunc("parmonc_runs_queued", "Runs waiting in the admission queue.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.queue))
		})
		reg.GaugeFunc("parmonc_fleet_workers", "Fleet workers currently attached.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.workers))
		})
		m.mStale = reg.Counter("parmonc_fleet_stale_epoch_total", "Fleet calls fenced or ignored for carrying a previous incarnation's epoch.")
		reg.GaugeFunc("parmonc_fleet_pull_parked", "Fleet pulls currently parked in the coordinator-side long-poll.", func() float64 {
			return float64(m.parked.Load())
		})
		m.hBatch = reg.Histogram("parmonc_fleet_batch_size", "Push windows carried per PushBatch RPC.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128})
		m.mRecCorrupt = reg.Counter("parmonc_recovery_corrupt_files_total", "Durable state files quarantined during startup recovery.")
		m.mRecResumed = reg.Counter("parmonc_recovery_runs_total", "Runs rehydrated at startup, by outcome.", obs.L("outcome", "resumed"))
		m.mRecRequeued = reg.Counter("parmonc_recovery_runs_total", "Runs rehydrated at startup, by outcome.", obs.L("outcome", "requeued"))
		m.mRecTerminal = reg.Counter("parmonc_recovery_runs_total", "Runs rehydrated at startup, by outcome.", obs.L("outcome", "terminal"))
		m.mRecReplayed = reg.Counter("parmonc_recovery_replayed_total", "Recovered runs whose manifest lagged the WAL (transition reconciled from the log).")
		reg.GaugeFunc("parmonc_service_epoch", "Service epoch of this incarnation (increases on every restart).", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.epoch)
		})
		reg.GaugeFunc("parmonc_recovery_samples_restored", "Sample volume carried across the last restart.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.recInfo.SamplesRestored)
		})
	}
	m.recovering.Store(true)
	err = m.recover()
	m.recovering.Store(false)
	if err != nil {
		if m.wal != nil {
			m.wal.Close()
		}
		return nil, err
	}
	if m.mRecResumed != nil {
		m.mRecResumed.Add(int64(m.recInfo.Resumed))
		m.mRecRequeued.Add(int64(m.recInfo.Requeued))
		m.mRecTerminal.Add(int64(m.recInfo.Terminal))
		m.mRecReplayed.Add(int64(m.recInfo.Replayed))
	}
	if cfg.LeaseTimeout > 0 {
		m.reaperStop = make(chan struct{})
		m.reaperDone = make(chan struct{})
		go m.reapLoop()
	}
	return m, nil
}

func (m *Manager) now() time.Time {
	if m.cfg.Now != nil {
		return m.cfg.Now()
	}
	return time.Now()
}

// jevent writes a service-journal event.
func (m *Manager) jevent(kind string, fields map[string]any) {
	if m.cfg.Journal != nil {
		m.cfg.Journal.Record(obs.Event{Kind: kind, Fields: fields})
	}
}

// revent writes an event to r's own journal (and mirrors run lifecycle
// transitions to the service journal).
func (r *run) revent(kind string, fields map[string]any) {
	if r.journal != nil {
		r.journal.Record(obs.Event{Kind: kind, Fields: fields})
	}
}

// Submit validates sub, assigns a run ID and experiment subsequence,
// and queues or immediately admits the run. It returns the run's
// status snapshot.
func (m *Manager) Submit(sub Submission) (RunStatus, error) {
	norm, id, scenario, err := m.normalize(sub)
	if err != nil {
		if m.mRejected != nil {
			m.mRejected.Inc()
		}
		return RunStatus{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return RunStatus{}, ErrClosed
	}
	if m.active >= m.cfg.MaxActive && len(m.queue) >= m.cfg.MaxQueued {
		if m.mRejected != nil {
			m.mRejected.Inc()
		}
		return RunStatus{}, fmt.Errorf("%w (%d active, %d queued)", ErrQueueFull, m.active, len(m.queue))
	}
	// Experiment subsequences keep hosted runs' base random numbers
	// disjoint; they are never reused for the manager's lifetime.
	// Zero means auto-assign (from 1 up), so subsequence 0 is never
	// used by a hosted run.
	if norm.SeqNum == 0 {
		s := uint64(1)
		for m.usedSeq[s] != "" {
			s++
		}
		norm.SeqNum = s
	} else if holder := m.usedSeq[norm.SeqNum]; holder != "" {
		if m.mRejected != nil {
			m.mRejected.Inc()
		}
		return RunStatus{}, fmt.Errorf("runmgr: experiment subsequence %d is already used by run %s: %w",
			norm.SeqNum, holder, ErrTerminal)
	}
	if err := m.checkRNGFit(norm); err != nil {
		if m.mRejected != nil {
			m.mRejected.Inc()
		}
		return RunStatus{}, err
	}

	m.nextRunID++
	r := &run{
		id:          fmt.Sprintf("r%04d", m.nextRunID),
		seq:         m.nextRunID,
		sub:         norm,
		workloadN:   id.Name,
		fingerprint: id.Fingerprint(),
		scenario:    scenario,
		nrow:        id.Nrow,
		ncol:        id.Ncol,
		state:       StateQueued,
		outstanding: map[uint64]*grant{},
		granted:     map[uint64]collect.Lease{},
		incompat:    map[int]bool{},
		submitted:   m.now(),
	}
	// A submission the service cannot make durable is rejected outright:
	// accepting it would mean silently forgetting it on the next restart.
	if err := m.persistRunErrLocked(r, walSubmit); err != nil {
		m.nextRunID--
		if m.mRejected != nil {
			m.mRejected.Inc()
		}
		return RunStatus{}, fmt.Errorf("runmgr: persisting submission: %w", err)
	}
	m.usedSeq[norm.SeqNum] = r.id
	m.runs[r.id] = r
	m.order = append(m.order, r)
	m.queue = append(m.queue, r)
	if m.mSubmitted != nil {
		m.mSubmitted.Inc()
	}
	m.registerRunGauges(r.id)
	m.jevent("run_submit", map[string]any{
		"run": r.id, "workload": r.fingerprint, "maxsv": norm.MaxSamples, "seqnum": norm.SeqNum,
	})
	m.admitLocked()
	// New work may now be grantable: unpark long-polled pulls.
	m.wakePullersLocked()
	return m.statusLocked(r), nil
}

// normalize resolves the scenario against the workload registry and
// fills the submission's defaults. It runs without the manager lock.
func (m *Manager) normalize(sub Submission) (Submission, workload.Identity, string, error) {
	if err := sub.Scenario.Validate(); err != nil {
		return sub, workload.Identity{}, "", err
	}
	def, err := workload.Lookup(sub.Scenario.Workload)
	if err != nil {
		return sub, workload.Identity{}, "", fmt.Errorf("runmgr: %w", err)
	}
	id, err := def.Identity(sub.Scenario.Params)
	if err != nil {
		return sub, workload.Identity{}, "", fmt.Errorf("runmgr: %w", err)
	}
	scenario := workload.Spec{Workload: def.Name, Params: workload.Values(id.Params)}.Canonical()
	if sub.MaxSamples <= 0 {
		return sub, id, "", fmt.Errorf("runmgr: submission needs a positive realization target (maxsv), got %d", sub.MaxSamples)
	}
	if sub.MaxSamples > m.cfg.MaxRealizations {
		return sub, id, "", fmt.Errorf("runmgr: realization target %d exceeds the per-run budget %d",
			sub.MaxSamples, m.cfg.MaxRealizations)
	}
	if sub.PassEvery == 0 {
		sub.PassEvery = 100
	}
	if sub.PassEvery < 0 {
		return sub, id, "", fmt.Errorf("runmgr: negative pass-every %d", sub.PassEvery)
	}
	if sub.Gamma == 0 {
		sub.Gamma = stat.DefaultConfidenceCoefficient
	}
	if sub.Gamma < 0 {
		return sub, id, "", fmt.Errorf("runmgr: negative confidence coefficient %g", sub.Gamma)
	}
	if sub.LeaseSize == 0 {
		sub.LeaseSize = defaultLeaseSize(sub.MaxSamples, sub.PassEvery)
	}
	if sub.LeaseSize < 0 {
		return sub, id, "", fmt.Errorf("runmgr: negative lease size %d", sub.LeaseSize)
	}
	if sub.TargetRelErr < 0 {
		return sub, id, "", fmt.Errorf("runmgr: negative relative-error target %g", sub.TargetRelErr)
	}
	return sub, id, scenario, nil
}

// checkRNGFit rejects a run whose lease partition does not fit the RNG
// substream hierarchy. Called with mu held (after SeqNum assignment).
func (m *Manager) checkRNGFit(sub Submission) error {
	leases := collect.PartitionLeases(sub.MaxSamples, sub.LeaseSize)
	if len(leases) == 0 {
		return fmt.Errorf("runmgr: empty lease partition for maxsv %d", sub.MaxSamples)
	}
	last := leases[len(leases)-1]
	var maxReal uint64
	if sub.LeaseSize > 1 {
		maxReal = uint64(sub.LeaseSize - 1)
	}
	if err := m.cfg.Params.CheckCoord(rng.Coord{
		Experiment: sub.SeqNum, Processor: last.Proc, Realization: maxReal,
	}); err != nil {
		return fmt.Errorf("runmgr: run does not fit the RNG hierarchy (%d leases of %d): %w",
			len(leases), sub.LeaseSize, err)
	}
	return nil
}

// registerRunGauges publishes the per-run labeled series. The closures
// look the run up under the manager lock at scrape time, so they stay
// valid for the manager's lifetime. Called with mu held.
func (m *Manager) registerRunGauges(id string) {
	reg := m.cfg.Registry
	if reg == nil {
		return
	}
	l := obs.L("run", id)
	reg.GaugeFunc("parmonc_run_samples", "Sample volume merged so far, per run.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		r := m.runs[id]
		if r == nil || r.eng == nil {
			return 0
		}
		return float64(r.eng.N())
	}, l)
	reg.GaugeFunc("parmonc_run_leases_outstanding", "Granted, incomplete leases, per run.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		r := m.runs[id]
		if r == nil {
			return 0
		}
		return float64(len(r.outstanding))
	}, l)
	reg.GaugeFunc("parmonc_run_leases_pending", "Leases not yet granted, per run.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		r := m.runs[id]
		if r == nil {
			return 0
		}
		return float64(len(r.pending))
	}, l)
	reg.GaugeFunc("parmonc_run_state", "Lifecycle state, per run (0 queued, 1 admitted, 2 running, 3 done, 4 failed, 5 canceled).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		r := m.runs[id]
		if r == nil {
			return -1
		}
		switch r.state {
		case StateQueued:
			return 0
		case StateAdmitted:
			return 1
		case StateRunning:
			return 2
		case StateDone:
			return 3
		case StateFailed:
			return 4
		default:
			return 5
		}
	}, l)
}

// admitLocked promotes queued runs into free active slots.
func (m *Manager) admitLocked() {
	for !m.closed && m.active < m.cfg.MaxActive && len(m.queue) > 0 {
		r := m.queue[0]
		m.queue = m.queue[1:]
		if err := m.admitRunLocked(r); err != nil {
			r.state = StateFailed
			r.errMsg = err.Error()
			r.finished = m.now()
			if m.mFailed != nil {
				m.mFailed.Inc()
			}
			m.persistRunLocked(r, walFailed)
			m.jevent("run_failed", map[string]any{"run": r.id, "err": err.Error()})
		}
	}
}

// admitRunLocked gives r an active slot: data directory, journal,
// collector, lease partition.
func (m *Manager) admitRunLocked(r *run) error {
	r.dir = filepath.Join(m.cfg.DataRoot, r.id)
	d, err := store.Open(r.dir)
	if err != nil {
		return err
	}
	j, err := obs.OpenJournalRotating(d.JournalPath(), m.cfg.JournalMaxBytes)
	if err != nil {
		return err
	}
	var stop collect.StopRule
	if r.sub.TargetRelErr > 0 {
		stop = collect.TargetRelErr(r.sub.TargetRelErr, r.sub.MinSamples)
	}
	meta := store.RunMeta{
		SeqNum:      r.sub.SeqNum,
		Nrow:        r.nrow,
		Ncol:        r.ncol,
		MaxSV:       r.sub.MaxSamples,
		Params:      m.cfg.Params,
		Gamma:       r.sub.Gamma,
		StartedAt:   m.now(),
		Workload:    r.workloadN,
		Fingerprint: r.fingerprint,
		Scenario:    r.scenario,
	}
	restore := r.restoreImg
	r.restoreImg = nil
	eng, err := collect.New(d, meta, collect.Config{
		AverPeriod: m.cfg.AverPeriod,
		Stop:       stop,
		Hook:       collect.JournalHook(j),
		Now:        m.cfg.Now,
		// Restore rebuilds the collector's shards and lease ledgers from
		// the run image when the run survived a service restart — the
		// fold topology is preserved, so the final report stays
		// bit-identical to an uninterrupted run. Every save rewrites
		// that image.
		Restore: restore,
		// Registry stays nil on purpose: the collector registers
		// fixed-name series, and two runs must not share counters. The
		// manager's labeled parmonc_run_* gauges are the shared view.
	})
	if err != nil {
		j.Close()
		return err
	}
	r.journal = j
	r.eng = eng
	partition := collect.PartitionLeases(r.sub.MaxSamples, r.sub.LeaseSize)
	r.leaseTotal = len(partition)
	if restore != nil {
		r.pending, r.nCompleted = remainingLeases(partition, restore)
	} else {
		r.pending = partition
	}
	r.state = StateAdmitted
	m.active++
	m.persistRunLocked(r, walAdmit)
	r.revent("run_admit", map[string]any{
		"run": r.id, "workload": r.fingerprint, "scenario": r.scenario,
		"maxsv": r.sub.MaxSamples, "seqnum": r.sub.SeqNum, "leases": r.leaseTotal,
	})
	m.jevent("run_admit", map[string]any{"run": r.id, "leases": r.leaseTotal})
	if restore != nil {
		r.revent("run_restore", map[string]any{
			"run": r.id, "n": eng.N(), "pending": len(r.pending), "completed": r.nCompleted,
		})
		// A run that crashed after its last lease merged but before the
		// completion transition was recorded finishes right here, with
		// the report computed from the restored shards — same bits.
		if eng.TargetReached() || eng.EvalStop() {
			m.finishRunLocked(r, StateDone, "")
		}
	}
	return nil
}

// wakePullersLocked unparks every pull waiting in the long-poll by
// closing the current wake channel and installing a fresh one. Called
// with m.mu held by any transition that could make work grantable —
// submission/admission, lease reissue, a freed slot — or that must
// unpark pullers to answer Stop (close, drain, kill). Because parked
// pullers capture the channel under the same lock that state changes
// hold, a wakeup can never be lost: either the puller saw the new
// state, or it parked on a channel the change closed.
func (m *Manager) wakePullersLocked() {
	close(m.pullWake)
	m.pullWake = make(chan struct{})
}

// pullTask answers one fleet Pull. When nothing is grantable and the
// worker asked for a long-poll, the call parks — off the manager lock —
// until a wake or its deadline, so an idle fleet costs ~1 RPC per
// worker per wait window instead of a fixed-rate poll storm.
func (m *Manager) pullTask(ctx context.Context, a PullArgs) (PullReply, error) {
	m.fleetCalls.Add(1)
	m.pullCalls.Add(1)
	m.pullBusy.Add(1)
	defer m.pullBusy.Add(-1)
	wait := min(a.Wait, m.cfg.PullWait)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		m.mu.Lock()
		reply, err, decided := m.tryPullLocked(a)
		if decided || wait <= 0 {
			m.mu.Unlock()
			return reply, err
		}
		// Nothing grantable: park on the wake channel captured under the
		// same lock the scheduler state changes hold. The overall hold is
		// bounded by the single timer across wake/retry rounds.
		wake := m.pullWake
		m.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(wait)
		}
		m.parked.Add(1)
		select {
		case <-wake:
			m.parked.Add(-1)
		case <-timer.C:
			m.parked.Add(-1)
			return PullReply{}, nil
		case <-ctx.Done():
			m.parked.Add(-1)
			return PullReply{}, nil
		}
	}
}

// tryPullLocked implements the fair-share scheduler: among the active
// runs with pending leases that this worker can serve, pick the one
// with the fewest outstanding grants (earliest-submitted wins ties) —
// every active run converges to an equal share of the fleet, and
// capacity freed by a canceled run flows to the survivors on their
// next pull. The third result is false only for the "nothing grantable
// right now" answer — the one a long-poll may park on.
func (m *Manager) tryPullLocked(a PullArgs) (PullReply, error, bool) {
	if m.closed || m.draining {
		return PullReply{Stop: true}, nil, true
	}
	if a.Epoch != m.epoch || m.workers[a.Worker] == nil {
		// A worker attached to a previous incarnation (or, with the
		// right epoch but an unknown index, one that detached or missed
		// two restarts between polls): tell it to re-attach rather than
		// erroring — it keeps its realizer cache and rejoins the fleet
		// under the current epoch.
		m.staleLocked("pull", a.Epoch)
		return PullReply{Reattach: true}, nil, true
	}
	var best *run
	for _, r := range m.order {
		if r.state != StateAdmitted && r.state != StateRunning {
			continue
		}
		if len(r.pending) == 0 || r.incompat[a.Worker] {
			continue
		}
		if best == nil || len(r.outstanding) < len(best.outstanding) {
			best = r
		}
	}
	if best == nil {
		return PullReply{}, nil, false
	}
	l := best.pending[0]
	best.pending = best.pending[1:]
	best.nextLease++
	// The service epoch occupies the lease ID's high bits, so an ID
	// minted by this incarnation can never collide with a grant restored
	// from a previous one — the ledger stays collision-free across
	// restarts without any coordination.
	l.ID = m.epoch<<32 | best.nextLease
	proc := int(l.Proc)
	// The processor subsequence is the shard: fold order — and so the
	// report bits — cannot depend on which fleet worker executes what.
	best.eng.Register(proc)
	if err := best.eng.GrantLease(proc, l); err != nil {
		// A duplicate lease ID here is a manager bug; fail the run
		// loudly rather than corrupt its ledger. Answer "nothing granted"
		// decisively — another run may have work on the next pull.
		m.finishRunLocked(best, StateFailed, fmt.Sprintf("lease grant: %v", err))
		return PullReply{}, nil, true
	}
	best.outstanding[l.ID] = &grant{lease: l, worker: a.Worker, lastActive: m.mono()}
	best.granted[l.ID] = l
	best.nGranted++
	if best.state == StateAdmitted {
		best.state = StateRunning
		if best.started.IsZero() {
			best.started = m.now()
		}
		m.persistRunLocked(best, walStart)
		best.revent("run_start", map[string]any{"run": best.id})
		m.jevent("run_start", map[string]any{"run": best.id})
	}
	best.revent("lease_grant", map[string]any{
		"run": best.id, "lease": l.ID, "proc": l.Proc, "start": l.Start,
		"count": l.Count, "fleet_worker": a.Worker,
	})
	return PullReply{Granted: true, Task: Task{
		RunID:       best.id,
		Scenario:    best.scenario,
		Fingerprint: best.fingerprint,
		Nrow:        best.nrow,
		Ncol:        best.ncol,
		SeqNum:      best.sub.SeqNum,
		Params:      m.cfg.Params,
		Gamma:       best.sub.Gamma,
		PassEvery:   best.sub.PassEvery,
		Lease:       l,
	}}, nil, true
}

// pushBatch fans one worker's coalesced push windows out to the
// per-run collectors. Entries are applied sequentially in wire order:
// the worker appended each lease's windows in completion order, so
// every per-lease done ledger sees the same strictly-increasing
// sequence whatever the batch shape, each entry dedups on its absolute
// substream position, and the merged bytes — and so the report — are
// bit-identical. Each entry gets its own verdict; an
// application-level rejection rides in Err so one bad entry cannot
// take down the rest of the batch.
func (m *Manager) pushBatch(a PushBatchArgs) (PushBatchReply, error) {
	m.fleetCalls.Add(1)
	if m.hBatch != nil {
		m.hBatch.Observe(float64(len(a.Entries)))
	}
	rep := PushBatchReply{Entries: make([]PushEntryReply, len(a.Entries))}
	runIDs := make(map[string]struct{}, 1)
	for i, e := range a.Entries {
		runIDs[e.RunID] = struct{}{}
		one, err := m.pushOne(a.Epoch, e)
		if err != nil {
			one = PushEntryReply{Err: err.Error()}
		}
		rep.Entries[i] = one
	}
	rep.RetryAfter = m.retryAfter(runIDs)
	return rep, nil
}

// retryAfter computes the soft backpressure delay for a batch that
// touched the given runs: the worst collector save lag among them,
// when it exceeds the averaging period (saves falling behind the
// cadence they are supposed to run at), capped so a stretched worker
// cadence can never approach the lease timeout.
func (m *Manager) retryAfter(runIDs map[string]struct{}) time.Duration {
	if m.cfg.AverPeriod <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var worst time.Duration
	for id := range runIDs {
		r := m.runs[id]
		if r == nil || r.eng == nil || r.state.Terminal() {
			continue
		}
		if lag := r.eng.SaveLag(); lag > m.cfg.AverPeriod && lag > worst {
			worst = lag
		}
	}
	limit := m.cfg.LeaseTimeout / 4
	if limit <= 0 || limit > time.Second {
		limit = time.Second
	}
	if worst > limit {
		worst = limit
	}
	return worst
}

// pushOne applies one push window. The engine merge runs outside the
// manager lock — pushes for different runs (and different procs of one
// run) proceed concurrently, exactly as the sharded collector is
// designed to be fed.
func (m *Manager) pushOne(epoch uint64, a PushEntry) (PushEntryReply, error) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	m.mu.Lock()
	if epoch != m.epoch {
		// A zombie push: the grant was minted by a previous incarnation
		// and its lease ledger was restored revoked. Fencing here (and
		// in the ledger itself, belt and braces) is what makes a restart
		// unable to double-merge a window.
		m.staleLocked("push", epoch)
		m.mu.Unlock()
		return PushEntryReply{Fenced: true}, nil
	}
	r := m.runs[a.RunID]
	if r == nil {
		m.mu.Unlock()
		return PushEntryReply{Final: true}, nil
	}
	if r.state.Terminal() {
		m.mu.Unlock()
		return PushEntryReply{Final: true}, nil
	}
	gl, known := r.granted[a.LeaseID]
	if !known || a.Done <= 0 || a.Done > gl.Count {
		// A grant this manager never made (or an impossible claim):
		// fence the sender so it abandons the task.
		m.mu.Unlock()
		return PushEntryReply{Fenced: true}, nil
	}
	eng := r.eng
	origin := collect.PushOrigin{
		Worker: int(gl.Proc),
		// The push sequence is the absolute position in the processor
		// substream: strictly increasing across grants and reissues of
		// the same proc, so at-least-once retries dedup exactly.
		Seq:   gl.Start + uint64(a.Done),
		Lease: a.LeaseID,
		Done:  a.Done,
	}
	m.mu.Unlock()

	err := eng.PushFrom(origin, a.Snap)
	if errors.Is(err, collect.ErrFenced) {
		return PushEntryReply{Fenced: true}, nil
	}
	if err != nil {
		return PushEntryReply{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if r.state.Terminal() {
		return PushEntryReply{Final: true}, nil
	}
	if g := r.outstanding[a.LeaseID]; g != nil {
		g.lastActive = m.mono()
		if a.Done == g.lease.Count {
			delete(r.outstanding, a.LeaseID)
			r.nCompleted++
		}
	}
	if eng.TargetReached() || eng.EvalStop() {
		m.finishRunLocked(r, StateDone, "")
		return PushEntryReply{Final: true}, nil
	}
	return PushEntryReply{}, nil
}

// nackTask handles a worker that cannot serve a run's scenario (not
// registered there, or resolving to a different fingerprint): the
// lease remainder goes back to the front of the run's queue and the
// worker is excluded from that run.
func (m *Manager) nackTask(a NackArgs) error {
	m.fleetCalls.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.Epoch != m.epoch {
		m.staleLocked("nack", a.Epoch)
		return nil
	}
	r := m.runs[a.RunID]
	if r == nil || r.state.Terminal() {
		return nil
	}
	r.incompat[a.Worker] = true
	r.nNacks++
	m.reclaimGrantLocked(r, a.LeaseID, "nack: "+a.Reason)
	if len(r.incompat) >= len(m.workers) && len(m.workers) > 0 && len(r.outstanding) == 0 {
		// No attached worker can serve this scenario at all.
		m.finishRunLocked(r, StateFailed, "no attached fleet worker can serve this workload: "+a.Reason)
	}
	return nil
}

// failTask handles a definitive realization failure: the run fails,
// partial results are saved.
func (m *Manager) failTask(a FailArgs) error {
	m.fleetCalls.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.Epoch != m.epoch {
		// The failure happened against a previous incarnation (e.g. its
		// push path died with the service). The restarted run recomputes
		// that window; failing it now would kill a healthy recovery.
		m.staleLocked("fail", a.Epoch)
		return nil
	}
	r := m.runs[a.RunID]
	if r == nil || r.state.Terminal() {
		return nil
	}
	m.finishRunLocked(r, StateFailed, a.Reason)
	return nil
}

// staleLocked counts one fleet call fenced or ignored for carrying a
// previous incarnation's service epoch. Caller holds m.mu.
func (m *Manager) staleLocked(op string, epoch uint64) {
	if m.mStale != nil {
		m.mStale.Inc()
	}
	m.jevent("stale_epoch", map[string]any{"op": op, "epoch": epoch, "service_epoch": m.epoch})
}

// reclaimGrantLocked revokes one outstanding grant, requeues its
// uncomputed remainder at the front, and counts a reissue.
func (m *Manager) reclaimGrantLocked(r *run, leaseID uint64, why string) {
	g := r.outstanding[leaseID]
	if g == nil {
		return
	}
	delete(r.outstanding, leaseID)
	rem := r.eng.ReclaimLeases(int(g.lease.Proc))
	if len(rem) > 0 {
		r.pending = append(rem, r.pending...)
		r.nReissued += int64(len(rem))
		if m.mReissued != nil {
			m.mReissued.Add(int64(len(rem)))
		}
		// Reissued leases are grantable immediately; an idle fleet parked
		// in the long-poll should not wait out its deadline to claim them.
		m.wakePullersLocked()
	}
	r.revent("lease_reissue", map[string]any{
		"run": r.id, "lease": leaseID, "proc": g.lease.Proc, "why": why,
	})
}

// finishRunLocked drives r to a terminal state: every outstanding
// grant is revoked (fencing stragglers), the collector finalizes (the
// last averaging + save — partial results are saved even for canceled
// and failed runs), and the freed slot admits the next queued run.
func (m *Manager) finishRunLocked(r *run, state State, errMsg string) {
	if r.state.Terminal() {
		return
	}
	heldSlot := r.state == StateAdmitted || r.state == StateRunning
	for id := range r.outstanding {
		g := r.outstanding[id]
		delete(r.outstanding, id)
		r.eng.ReclaimLeases(int(g.lease.Proc))
	}
	r.pending = nil
	if r.eng != nil {
		rep, err := r.eng.Finalize()
		if err != nil {
			if state == StateDone {
				state = StateFailed
				errMsg = err.Error()
			}
		} else {
			r.rep = rep
			r.hasReport = true
		}
	}
	r.state = state
	r.errMsg = errMsg
	r.finished = m.now()
	m.persistRunLocked(r, string(state))
	fields := map[string]any{"run": r.id, "state": string(state)}
	if r.eng != nil {
		fields["n"] = r.eng.N()
	}
	if errMsg != "" {
		fields["err"] = errMsg
	}
	r.revent("run_finish", fields)
	m.jevent("run_finish", fields)
	if r.journal != nil {
		r.journal.Close()
	}
	switch state {
	case StateDone:
		if m.mDone != nil {
			m.mDone.Inc()
		}
	case StateFailed:
		if m.mFailed != nil {
			m.mFailed.Inc()
		}
	case StateCanceled:
		if m.mCanceled != nil {
			m.mCanceled.Inc()
		}
	}
	if heldSlot {
		m.active--
		m.admitLocked()
	}
	// The freed slot may have admitted a queued run (new pending
	// leases), and parked pullers must re-evaluate in any case.
	m.wakePullersLocked()
}

// Cancel cancels a run: a queued run simply leaves the queue; an
// active run has its grants fenced, saves what it accumulated, and its
// slot and fleet capacity flow to the remaining runs.
func (m *Manager) Cancel(id string) (RunStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.runs[id]
	if r == nil {
		return RunStatus{}, ErrNotFound
	}
	if r.state.Terminal() {
		return m.statusLocked(r), ErrTerminal
	}
	if r.state == StateQueued {
		for i, q := range m.queue {
			if q == r {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
	}
	m.finishRunLocked(r, StateCanceled, "canceled by request")
	return m.statusLocked(r), nil
}

// attach admits a fleet worker, idempotently per ClientID: a retried
// attach (lost reply) returns the same worker index.
func (m *Manager) attach(a AttachArgs) (AttachReply, error) {
	m.fleetCalls.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return AttachReply{}, ErrClosed
	}
	if a.ClientID != "" {
		if id, ok := m.byClient[a.ClientID]; ok {
			return AttachReply{Worker: id, Epoch: m.epoch}, nil
		}
	}
	m.nextWorker++
	w := &fleetWorker{id: m.nextWorker, clientID: a.ClientID, hostname: a.Hostname}
	m.workers[w.id] = w
	if a.ClientID != "" {
		m.byClient[a.ClientID] = w.id
	}
	m.jevent("worker_attach", map[string]any{"fleet_worker": w.id, "host": a.Hostname})
	return AttachReply{Worker: w.id, Epoch: m.epoch}, nil
}

// detach removes a fleet worker; leases it still holds are reissued.
func (m *Manager) detach(a DetachArgs) error {
	m.fleetCalls.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.Epoch != m.epoch {
		// The worker index belongs to a previous incarnation — possibly
		// to a different worker now. Ignore rather than detach a stranger.
		m.staleLocked("detach", a.Epoch)
		return nil
	}
	m.detachWorkerLocked(a.Worker)
	return nil
}

func (m *Manager) detachWorkerLocked(id int) {
	w := m.workers[id]
	if w == nil {
		return
	}
	delete(m.workers, id)
	if w.clientID != "" {
		delete(m.byClient, w.clientID)
	}
	for _, r := range m.order {
		if r.state.Terminal() {
			continue
		}
		for leaseID, g := range r.outstanding {
			if g.worker == id {
				m.reclaimGrantLocked(r, leaseID, "worker detached")
			}
		}
	}
	m.jevent("worker_detach", map[string]any{"fleet_worker": id})
}

// reapLoop reissues leases whose holders have gone silent for longer
// than LeaseTimeout.
func (m *Manager) reapLoop() {
	defer close(m.reaperDone)
	period := m.cfg.LeaseTimeout / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.reaperStop:
			return
		case <-tick.C:
			m.mu.Lock()
			cut := m.mono() - m.cfg.LeaseTimeout
			for _, r := range m.order {
				if r.state != StateRunning && r.state != StateAdmitted {
					continue
				}
				for leaseID, g := range r.outstanding {
					if g.lastActive < cut {
						m.reclaimGrantLocked(r, leaseID, "lease timeout")
					}
				}
			}
			m.mu.Unlock()
		}
	}
}

// Close shuts the service down: queued runs are canceled, active runs
// finalize (saving partial results) as canceled, fleet listeners and
// connections close, and attached local workers see Stop on their next
// pull.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.queue = nil
	for _, r := range m.order {
		if !r.state.Terminal() {
			m.finishRunLocked(r, StateCanceled, "service shutting down")
		}
	}
	// Unpark long-polled pulls so they answer Stop now, not at their
	// deadline — local workers block Close's wg.Wait otherwise.
	m.wakePullersLocked()
	m.mu.Unlock()

	if m.reaperStop != nil {
		close(m.reaperStop)
		<-m.reaperDone
	}
	m.lnMu.Lock()
	m.lnClosed = true
	for _, ln := range m.lns {
		ln.Close()
	}
	m.lns = nil
	for c := range m.conns {
		c.Close()
	}
	m.conns = map[interface{ Close() error }]struct{}{}
	m.lnMu.Unlock()
	m.wg.Wait()
	if m.wal != nil {
		m.wal.Close()
	}
	return nil
}

// Shutdown drains the service gracefully: fleet pulls see Stop,
// in-flight pushes land, every active run saves a final run image,
// manifests and the WAL record a clean shutdown, and
// all resources close. Runs are left running/queued in their durable
// state — the next incarnation resumes them with nothing to replay
// (the regression the clean-shutdown test pins down).
func (m *Manager) Shutdown() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	// Parked pulls must re-check and see Stop before the drain barrier.
	m.wakePullersLocked()
	m.mu.Unlock()

	// Drain: pushes already past the door finish merging (bounded wait —
	// a wedged fleet must not block shutdown forever).
	for i := 0; i < 400 && m.inflight.Load() > 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	// The woken pulls need the lock back to observe draining and carry
	// their Stop replies out; with long-polling an idle fleet has a pull
	// in flight almost always, so closing connections without this
	// barrier would turn nearly every graceful shutdown into worker-side
	// retry errors instead of clean stops. Bounded like the push drain.
	for i := 0; i < 400 && m.pullBusy.Load() > 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}

	m.mu.Lock()
	m.closed = true
	for _, r := range m.order {
		if r.state.Terminal() || r.eng == nil {
			continue
		}
		// Save captures the run image — the state the next incarnation
		// restores bit-identically.
		if err := r.eng.Save(); err != nil {
			r.revent("suspend_save_error", map[string]any{"run": r.id, "err": err.Error()})
		}
		r.revent("run_suspend", map[string]any{"run": r.id, "n": r.eng.N()})
		if r.journal != nil {
			r.journal.Close()
		}
		m.persistRunLocked(r, walSuspend)
	}
	if m.wal != nil {
		if err := m.wal.Append(store.WALKindShutdown, "", m.now(), nil); err != nil {
			m.jevent("persist_error", map[string]any{"kind": "shutdown", "err": err.Error()})
		}
		m.wal.Close()
	}
	m.mu.Unlock()

	if m.reaperStop != nil {
		close(m.reaperStop)
		<-m.reaperDone
	}
	m.lnMu.Lock()
	m.lnClosed = true
	for _, ln := range m.lns {
		ln.Close()
	}
	m.lns = nil
	for c := range m.conns {
		c.Close()
	}
	m.conns = map[interface{ Close() error }]struct{}{}
	m.lnMu.Unlock()
	m.wg.Wait()
	m.jevent("service_shutdown", map[string]any{"drained": true})
	return nil
}

// kill simulates a crash for the chaos tests: listeners and
// connections drop and goroutines stop, but nothing drains, saves,
// finalizes or records a shutdown — the durable state left behind is
// exactly what a SIGKILLed process leaves (any prefix of the periodic
// saves, plus whatever the WAL had already been told).
func (m *Manager) kill() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	// Even a "crash" must unpark long-polls: the goroutines parked in
	// pullTask belong to this process and would otherwise outlive the
	// simulated kill until their deadlines.
	m.wakePullersLocked()
	m.mu.Unlock()

	m.lnMu.Lock()
	m.lnClosed = true
	for _, ln := range m.lns {
		ln.Close()
	}
	m.lns = nil
	for c := range m.conns {
		c.Close()
	}
	m.conns = map[interface{ Close() error }]struct{}{}
	m.lnMu.Unlock()
	if m.reaperStop != nil {
		close(m.reaperStop)
		<-m.reaperDone
	}
	m.wg.Wait()

	// Only fd hygiene below — the in-memory state is abandoned, not
	// persisted. The WAL's appends already reached the OS.
	m.mu.Lock()
	if m.wal != nil {
		m.wal.Close()
	}
	for _, r := range m.order {
		if r.journal != nil && !r.state.Terminal() {
			r.journal.Close()
		}
	}
	m.mu.Unlock()
}
