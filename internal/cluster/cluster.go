// Package cluster is the distributed substrate of the library — the
// replacement for the MPI layer of the original PARMONC.
//
// The original library runs the user's program on M MPI ranks; rank 0
// collects subtotal moments the other ranks push periodically
// (Sec. 2.2). Go has no MPI, but PARMONC uses none of MPI's collective
// machinery — only "send subtotals to rank 0, rarely" — so a small RPC
// protocol over TCP reproduces the communication pattern exactly:
//
//	worker                         coordinator (rank 0)
//	  Register ────────────────▶   assign processor index, epoch + job spec
//	  Acquire ─────────────────▶   grant a lease: a window of realization
//	                               substreams
//	  simulate the window ...
//	  Push(subtotal moments) ──▶   merge (formula (5)), save periodically
//	  ... Acquire again until told to stop or out of work ...
//	  Done ────────────────────▶   account; release
//
// There is one of each: one worker entry point (RunWorker), one
// realization loop (core.RunLease, shared with the other transports),
// and one push shape — every Push carries a sequence number, the
// registration epoch and a lease, so every merge passes the dedup,
// fencing and lease ledgers; a push missing any of them is rejected.
//
// Workers are fully asynchronous: no worker ever waits for another, and
// the coordinator merges whatever arrives whenever it arrives — the
// paper's "no need for load balancing" property. A worker that dies
// silently costs only its unsent subtotals: its lease remainders are
// reissued to the survivors, and their moments remain valid because
// every lease draws from its own subsequence of the parallel RNG.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
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

// JobSpec describes the simulation a coordinator manages. It is
// transmitted to every worker at registration, so worker binaries need
// only the realization routine and the coordinator address.
type JobSpec struct {
	SeqNum     uint64     // "experiments" subsequence number
	Nrow, Ncol int        // realization matrix dimensions
	MaxSamples int64      // total sample volume target; <= 0 means unbounded
	Params     rng.Params // leap exponents
	Gamma      float64    // confidence coefficient
	PassEvery  int64      // worker pushes after this many realizations (>= 1)

	// Workload is the parameter-resolved identity of the realization
	// routine this job averages. It is checked against every worker at
	// registration: name, schema version, dimensions and every resolved
	// parameter value must agree (via the canonical fingerprint), so a
	// worker built for the same-named scenario with different parameters
	// is rejected before any wrong moments are merged. The zero Identity
	// (an unnamed user factory) disables the check.
	Workload workload.Identity

	// LeaseSize, when positive, fixes the realization-window size of
	// the leases the coordinator hands out: lease i covers realizations
	// [Start, Start+Count) of processor subsequence i+1, so the
	// partition of the run into substreams is a pure function of
	// (MaxSamples, LeaseSize) — independent of which workers show up or
	// die, which is what makes the final report bit-identical under any
	// failure schedule. Zero picks a PassEvery-aligned default.
	LeaseSize int64

	// Heartbeat is the liveness interval workers are told at
	// registration: a worker proves it is alive at least this often,
	// piggybacked on pushes when busy and via the explicit Heartbeat
	// RPC between pushes. The coordinator declares a worker dead after
	// CoordinatorConfig.MissBudget missed intervals, revokes its
	// leases, and reissues the uncomputed remainders. Zero disables
	// heartbeat supervision.
	Heartbeat time.Duration
}

// Validate checks the spec invariants.
func (s JobSpec) Validate() error {
	if s.Nrow <= 0 || s.Ncol <= 0 {
		return fmt.Errorf("cluster: invalid dimensions %d×%d", s.Nrow, s.Ncol)
	}
	if s.PassEvery < 1 {
		return fmt.Errorf("cluster: PassEvery %d must be >= 1", s.PassEvery)
	}
	if s.Gamma <= 0 {
		return fmt.Errorf("cluster: confidence coefficient %g must be positive", s.Gamma)
	}
	if s.LeaseSize < 0 {
		return fmt.Errorf("cluster: LeaseSize %d must not be negative", s.LeaseSize)
	}
	if s.Heartbeat < 0 {
		return fmt.Errorf("cluster: Heartbeat %s must not be negative", s.Heartbeat)
	}
	return s.Params.Validate()
}

// RegisterArgs is sent by a worker when it joins.
type RegisterArgs struct {
	Hostname string // informational
	// Workload identifies the realization routine the worker will run:
	// name, schema version, dimensions and resolved parameter values.
	// When both sides set it, the coordinator rejects any mismatch at
	// registration with an error naming the exact field that differs —
	// catching the operator error of joining a worker built (or
	// parameterized) for a different job before any wrong moments are
	// merged.
	Workload workload.Identity
	// ClientID is an opaque identity chosen by the worker process,
	// making registration idempotent: if the coordinator applied a
	// Register but the reply was lost in the network, the retried call
	// returns the same processor index instead of burning a fresh
	// subsequence and orphaning the old index. Empty means
	// non-idempotent registration (every call assigns a new index).
	ClientID string
}

// RegisterReply assigns the worker its index, epoch and job.
type RegisterReply struct {
	Worker int // worker index (>= 1; the coordinator itself is rank 0)
	Spec   JobSpec
	Stop   bool // true when the job is already complete
	// Epoch is the registration generation of this worker index. It
	// bumps every time a pruned index re-registers, fencing the dead
	// session: pushes and heartbeats stamped with an older epoch are
	// rejected, so a zombie cannot race the fresh session's sequence
	// numbers. Workers echo it on every call.
	Epoch uint64
}

// AcquireArgs asks the coordinator for the next lease.
type AcquireArgs struct {
	Worker int
	Epoch  uint64
}

// AcquireReply carries the granted lease, or tells the worker to wait
// (all leases granted, outstanding ones may yet be reissued), stop
// (job complete), or re-register (stale epoch).
type AcquireReply struct {
	Lease   collect.Lease
	Granted bool
	Stop    bool
	Fenced  bool
}

// PushArgs carries one subtotal snapshot from a worker.
type PushArgs struct {
	Worker int
	Snap   stat.Snapshot
	// Seq is the worker's monotonic push sequence number (starting at
	// 1), the idempotency key: the coordinator acknowledges but does
	// not re-merge a sequence number it has already applied, so a push
	// whose reply was lost can be retried without double-counting
	// moments.
	Seq uint64
	// Epoch is the worker's registration epoch, as Register returned it.
	Epoch uint64
	// Lease is the grant the snapshot's realizations belong to, and
	// Done the cumulative count of that lease's realizations completed
	// once this snapshot merges — the collector's per-lease ledger, the
	// exact prefix a reissue must skip.
	//
	// Seq, Epoch and Lease are all required: a push with any of them
	// zero is rejected, so nothing reaches the totals outside the
	// dedup, fencing and lease ledgers.
	Lease uint64
	Done  int64
}

// PushReply tells the worker whether to continue. Fenced means the
// push was acknowledged but NOT merged: the sender's epoch is stale or
// its lease revoked, and it must re-register before doing more work.
type PushReply struct {
	Stop   bool
	Fenced bool
}

// HeartbeatArgs is the explicit proof-of-life call a worker makes
// between pushes (busy workers piggyback liveness on Push itself).
type HeartbeatArgs struct {
	Worker int
	Epoch  uint64
}

// HeartbeatReply mirrors PushReply for a payload-free call.
type HeartbeatReply struct {
	Stop   bool
	Fenced bool
}

// DoneArgs signals that a worker has stopped (voluntarily or on Stop).
type DoneArgs struct {
	Worker int
	// Retries and Reconnects report the transport-level resilience
	// work this worker performed, folded into the coordinator's
	// collector metrics for the job-wide delivery story.
	Retries    int64
	Reconnects int64
}

// DoneReply is empty.
type DoneReply struct{}

// ServiceName is the RPC service name workers dial.
const ServiceName = "Parmonc"

// Coordinator is the rank-0 process: it assigns processor indices and
// feeds pushed moments to the collector engine, which owns merging,
// checkpointing and results files. The coordinator itself is only the
// net/rpc transport.
type Coordinator struct {
	spec    JobSpec
	eng     *collect.Collector
	journal *obs.Journal // nil: no journaling

	mu        sync.Mutex
	next      int            // next worker index to hand out
	byClient  map[string]int // ClientID → assigned index (idempotent Register)
	epoch     map[int]uint64 // registration generation per worker index
	lm        *leaseManager
	stopped   atomic.Bool   // read lock-free on the push/heartbeat hot path
	completed chan struct{} // closed when target reached and all workers done

	heartbeat  time.Duration // worker liveness interval (0: supervision off)
	missBudget int
	drain      time.Duration
	reaperStop chan struct{}

	cm coordMetrics

	ln     net.Listener
	server *rpc.Server

	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool           // Close has begun; reject late-accepted conns
	serving sync.WaitGroup // one per in-flight ServeConn goroutine
}

// CoordinatorConfig bundles the optional knobs of NewCoordinator.
type CoordinatorConfig struct {
	WorkDir    string        // where parmonc_data is written; default "."
	AverPeriod time.Duration // how often pushes trigger a save; default 2 min
	Resume     bool          // merge the previous run's checkpoint

	// MissBudget is how many consecutive heartbeat intervals a worker
	// may miss before it is declared dead, its leases revoked and
	// their uncomputed remainders reissued. Default 3.
	MissBudget int

	// SaveWorkerSnapshots writes each worker's cumulative moments to
	// parmonc_data/workers on every push, so the manaver command can
	// rebuild results if the coordinator dies before its final save —
	// the paper's post-mortem averaging workflow (Sec. 3.4).
	SaveWorkerSnapshots bool

	// DrainTimeout bounds how long Close waits for in-flight worker
	// connections to finish their RPCs before force-closing them, so a
	// final subtotal flush racing shutdown is merged instead of failing
	// with a spurious connection error. Default 2 s; negative disables
	// draining (immediate force-close).
	DrainTimeout time.Duration

	// Registry, if non-nil, receives the collector engine's metrics
	// plus coordinator-level gauges (active workers, sample volume,
	// target state). Serve it with obs.Serve (the parmonc coord --http
	// flag) to scrape a running job.
	Registry *obs.Registry

	// Journal, if non-nil, receives the run-event journal: every
	// collector event plus worker register/deregister records with
	// per-worker attribution. The caller owns the journal and closes
	// it after the job.
	Journal *obs.Journal
}

// NewCoordinator creates a coordinator listening on addr (e.g.
// "127.0.0.1:0"); the chosen address is available via Addr.
func NewCoordinator(spec JobSpec, cfg CoordinatorConfig, addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewCoordinatorOn(spec, cfg, ln)
	if err != nil {
		ln.Close()
	}
	return c, err
}

// NewCoordinatorOn is NewCoordinator serving on a caller-supplied
// listener. This is how the chaos suite interposes a fault-injecting
// faultnet.Listener between the coordinator and its workers; it also
// lets deployments bring their own (e.g. TLS) listeners. The
// coordinator takes ownership of ln and closes it in Close.
func NewCoordinatorOn(spec JobSpec, cfg CoordinatorConfig, ln net.Listener) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "."
	}
	if cfg.AverPeriod == 0 {
		cfg.AverPeriod = 2 * time.Minute
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.MissBudget <= 0 {
		cfg.MissBudget = 3
	}
	lm, err := newLeaseManager(spec)
	if err != nil {
		return nil, err
	}
	dir, err := store.Open(cfg.WorkDir)
	if err != nil {
		return nil, err
	}
	meta := store.RunMeta{
		SeqNum:      spec.SeqNum,
		Nrow:        spec.Nrow,
		Ncol:        spec.Ncol,
		MaxSV:       spec.MaxSamples,
		Params:      spec.Params,
		Gamma:       spec.Gamma,
		StartedAt:   time.Now(),
		Workload:    spec.Workload.Name,
		Fingerprint: spec.Workload.Fingerprint(),
	}
	if !spec.Workload.IsZero() {
		meta.Scenario = workload.Spec{Workload: spec.Workload.Name, Params: spec.Workload.Params}.Canonical()
	}
	eng, err := collect.New(dir, meta, collect.Config{
		Resume:              cfg.Resume,
		AverPeriod:          cfg.AverPeriod,
		SaveWorkerSnapshots: cfg.SaveWorkerSnapshots,
		Registry:            cfg.Registry,
		Hook:                collect.JournalHook(cfg.Journal),
	})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		spec:       spec,
		eng:        eng,
		journal:    cfg.Journal,
		byClient:   map[string]int{},
		epoch:      map[int]uint64{},
		lm:         lm,
		completed:  make(chan struct{}),
		heartbeat:  spec.Heartbeat,
		missBudget: cfg.MissBudget,
		drain:      cfg.DrainTimeout,
		reaperStop: make(chan struct{}),
		conns:      map[net.Conn]struct{}{},
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.cm = newCoordMetrics(reg, c)
	if !spec.Workload.IsZero() {
		// Prometheus info pattern: a constant 1 whose labels carry the
		// workload identity, joinable against every other series.
		reg.Gauge("parmonc_workload_info", "Workload identity of the job this coordinator manages.",
			obs.L("workload", spec.Workload.Name),
			obs.L("fingerprint", spec.Workload.Fingerprint())).Set(1)
	}
	if cfg.Registry != nil {
		cfg.Registry.GaugeFunc("parmonc_coordinator_active_workers", "Workers currently attached to the coordinator.",
			func() float64 { return float64(eng.Active()) })
		cfg.Registry.GaugeFunc("parmonc_coordinator_samples_total", "Total sample volume merged so far (incl. resumed base).",
			func() float64 { return float64(eng.N()) })
		cfg.Registry.GaugeFunc("parmonc_coordinator_target_reached", "1 once the sample target has been met.",
			func() float64 {
				if eng.TargetReached() {
					return 1
				}
				return 0
			})
	}

	c.server = rpc.NewServer()
	if err := c.server.RegisterName(ServiceName, &service{c}); err != nil {
		return nil, err
	}
	c.ln = ln
	go c.acceptLoop()
	if c.heartbeat > 0 {
		go c.superviseLoop()
	}
	return c, nil
}

// coordMetrics are the coordinator-level supervision counters. They
// live in the caller's registry when one is configured (so /metrics
// exposes them) and in a private one otherwise; Status reads them
// either way.
type coordMetrics struct {
	heartbeats            *obs.Counter
	heartbeatMisses       *obs.Counter
	leasesGranted         *obs.Counter
	leasesReissued        *obs.Counter
	registrationsRejected *obs.Counter
}

func newCoordMetrics(reg *obs.Registry, c *Coordinator) coordMetrics {
	reg.GaugeFunc("parmonc_coordinator_leases_pending", "Leases waiting to be granted (including reissued remainders).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.lm.pendingCount())
		})
	return coordMetrics{
		heartbeats:            reg.Counter("parmonc_coordinator_heartbeats_total", "Explicit heartbeat RPCs received."),
		heartbeatMisses:       reg.Counter("parmonc_coordinator_heartbeat_misses_total", "Supervision ticks that found a worker past its heartbeat interval."),
		leasesGranted:         reg.Counter("parmonc_coordinator_leases_granted_total", "Leases granted to workers (including re-grants of reissued remainders)."),
		leasesReissued:        reg.Counter("parmonc_coordinator_leases_reissued_total", "Lease remainders reissued after their holder died or detached mid-window."),
		registrationsRejected: reg.Counter("parmonc_coordinator_registrations_rejected_total", "Worker registrations refused for a workload identity mismatch."),
	}
}

// superviseLoop is the coordinator's failure detector. Every heartbeat
// interval it journals a heartbeat_miss for each worker past one
// interval of silence, and declares workers past MissBudget intervals
// dead: their leases are revoked and the uncomputed remainders requeued
// at the front, so a surviving or newly joining worker recomputes
// exactly the realizations the dead worker never delivered.
func (c *Coordinator) superviseLoop() {
	tick := time.NewTicker(c.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-c.reaperStop:
			return
		case <-c.completed:
			return
		case <-tick.C:
			for _, w := range c.eng.Overdue(c.heartbeat) {
				c.cm.heartbeatMisses.Inc()
				if c.journal != nil {
					c.journal.Record(obs.Event{Kind: "heartbeat_miss", Worker: w})
				}
			}
			for _, w := range c.eng.Overdue(time.Duration(c.missBudget) * c.heartbeat) {
				rem := c.eng.RevokeWorker(w)
				c.mu.Lock()
				c.reissueLocked(w, rem)
				c.mu.Unlock()
			}
			c.mu.Lock()
			c.maybeCompleteLocked()
			c.mu.Unlock()
		}
	}
}

// reissueLocked requeues the uncomputed remainders of a dead or
// detached worker's leases. Called with c.mu held.
func (c *Coordinator) reissueLocked(w int, rem []collect.Lease) {
	if len(rem) == 0 {
		return
	}
	c.lm.requeueFront(rem)
	for _, r := range rem {
		c.cm.leasesReissued.Inc()
		if c.journal != nil {
			c.journal.Record(obs.Event{Kind: "lease_reissue", Worker: w, Samples: r.Count, Fields: map[string]any{
				"proc": r.Proc, "start": r.Start, "count": r.Count,
			}})
		}
	}
}

// PrunedWorkers reports how many workers were dropped for silence.
func (c *Coordinator) PrunedWorkers() int {
	return int(c.eng.Metrics().PrunedWorkers)
}

// Addr returns the address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.connMu.Lock()
		if c.closing {
			c.connMu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.serving.Add(1)
		c.connMu.Unlock()
		go func() {
			defer c.serving.Done()
			c.server.ServeConn(conn)
			c.connMu.Lock()
			delete(c.conns, conn)
			c.connMu.Unlock()
		}()
	}
}

// service wraps the coordinator so only the RPC methods are exported to
// the wire.
type service struct{ c *Coordinator }

// Register assigns the calling worker a processor index. With a
// non-empty ClientID the call is idempotent: a retry after a lost reply
// returns the already-assigned index instead of a fresh one.
func (s *service) Register(args RegisterArgs, reply *RegisterReply) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.spec.Workload.CheckWorker(args.Workload); err != nil {
		c.cm.registrationsRejected.Inc()
		if c.journal != nil {
			c.journal.Record(obs.Event{Kind: "register_reject", Fields: map[string]any{
				"hostname": args.Hostname, "workload": args.Workload.Fingerprint(),
				"job_workload": c.spec.Workload.Fingerprint(), "reason": err.Error(),
			}})
		}
		return fmt.Errorf("cluster: %w", err)
	}
	if args.ClientID != "" {
		if w, ok := c.byClient[args.ClientID]; ok {
			reply.Worker = w
			reply.Spec = c.spec
			reply.Stop = c.stopped.Load() || c.eng.TargetReached()
			if reply.Stop {
				// The worker will exit on Stop without calling Done;
				// release the index its first (reply-lost) Register
				// activated so it cannot stall completion.
				_ = c.eng.Deregister(w)
				c.maybeCompleteLocked()
				return nil
			}
			if !c.eng.IsActive(w) {
				// A pruned session is coming back. Admit it under a new
				// epoch: the engine resets its sequence space, and any
				// in-flight pushes of the dead session — stamped with
				// the old epoch — are fenced instead of racing the
				// reset. This closes the reused-index dedup hole.
				c.epoch[w]++
				c.eng.RegisterEpoch(w, c.epoch[w])
				if c.journal != nil {
					c.journal.Record(obs.Event{Kind: "register", Worker: w, Fields: map[string]any{
						"hostname": args.Hostname, "client_id": args.ClientID,
						"epoch": c.epoch[w], "rejoin": true,
					}})
				}
			} else {
				c.eng.Register(w) // refresh liveness (retried Register)
			}
			reply.Epoch = c.epoch[w]
			return nil
		}
	}
	if c.stopped.Load() || c.eng.TargetReached() {
		reply.Stop = true
		reply.Spec = c.spec
		return nil
	}
	c.next++
	w := c.next // worker indices start at 1; the coordinator is rank 0
	c.epoch[w] = 1
	c.eng.RegisterEpoch(w, 1)
	if args.ClientID != "" {
		c.byClient[args.ClientID] = w
	}
	if c.journal != nil {
		c.journal.Record(obs.Event{Kind: "register", Worker: w, Fields: map[string]any{
			"hostname": args.Hostname, "client_id": args.ClientID, "epoch": uint64(1),
		}})
	}
	reply.Worker = w
	reply.Epoch = 1
	reply.Spec = c.spec
	return nil
}

// Acquire hands the calling worker the next lease: a window of
// realization substreams it now owns. With nothing pending the worker
// is told to wait (an outstanding lease may yet be revoked and
// reissued); once the job is complete it is told to stop.
func (s *service) Acquire(args AcquireArgs, reply *AcquireReply) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped.Load() || c.eng.TargetReached() {
		reply.Stop = true
		return nil
	}
	if err := c.eng.Touch(args.Worker, args.Epoch); err != nil {
		if errors.Is(err, collect.ErrFenced) {
			reply.Fenced = true
			return nil
		}
		return err
	}
	// A worker asking for work holds no lease it knows about; any lease
	// the ledger still attributes to it is a grant whose reply was lost.
	// Requeue the remainder so this very call re-grants the window.
	c.lm.requeueFront(c.eng.ReclaimLeases(args.Worker))
	l, ok := c.lm.next()
	if !ok {
		return nil // nothing to grant right now: wait and re-acquire
	}
	if err := c.eng.GrantLease(args.Worker, l); err != nil {
		return err
	}
	c.cm.leasesGranted.Inc()
	if c.journal != nil {
		c.journal.Record(obs.Event{Kind: "lease_grant", Worker: args.Worker, Seq: l.ID, Samples: l.Count,
			Fields: map[string]any{"proc": l.Proc, "start": l.Start, "count": l.Count}})
	}
	reply.Lease = l
	reply.Granted = true
	return nil
}

// Heartbeat is a worker's explicit proof of life between pushes.
func (s *service) Heartbeat(args HeartbeatArgs, reply *HeartbeatReply) error {
	c := s.c
	c.cm.heartbeats.Inc()
	if err := c.eng.Touch(args.Worker, args.Epoch); err != nil {
		if errors.Is(err, collect.ErrFenced) {
			reply.Fenced = true
			return nil
		}
		return err
	}
	reply.Stop = c.stopped.Load() || c.eng.TargetReached()
	return nil
}

// Push merges a worker's subtotal moments through the collector engine,
// which validates the snapshot before merging: a malformed or
// wrong-dimension push is rejected with an error and cannot corrupt the
// totals. A sequence number the engine has already applied for this
// worker is acknowledged without re-merging, so retried deliveries are
// idempotent.
func (s *service) Push(args PushArgs, reply *PushReply) error {
	c := s.c
	if args.Seq == 0 || args.Epoch == 0 || args.Lease == 0 {
		return fmt.Errorf("cluster: push from worker %d must carry a sequence number, epoch and lease (got seq %d, epoch %d, lease %d)",
			args.Worker, args.Seq, args.Epoch, args.Lease)
	}
	err := c.eng.PushFrom(collect.PushOrigin{
		Worker: args.Worker,
		Epoch:  args.Epoch,
		Seq:    args.Seq,
		Lease:  args.Lease,
		Done:   args.Done,
	}, args.Snap)
	if errors.Is(err, collect.ErrFenced) {
		// Acknowledge without merging: the sender is a fenced zombie
		// and must stop retrying this payload and re-register.
		reply.Fenced = true
		return nil
	}
	if err != nil {
		return err
	}
	// The stop signal needs no coordinator lock: a push never touches
	// lease or assignment state, so the engine's sharded merge is the
	// only synchronization on this path.
	reply.Stop = c.stopped.Load() || c.eng.TargetReached()
	return nil
}

// Done releases a worker. A retried Done for a worker index that was
// assigned but is no longer active (the first delivery was applied but
// its reply lost, or the worker was pruned) succeeds idempotently.
func (s *service) Done(args DoneArgs, reply *DoneReply) error {
	c := s.c
	rem, err := c.eng.ReleaseWorker(args.Worker)
	if err != nil {
		c.mu.Lock()
		assigned := args.Worker >= 1 && args.Worker <= c.next
		c.mu.Unlock()
		if !assigned {
			return fmt.Errorf("cluster: done from unknown worker %d", args.Worker)
		}
		return nil // duplicate Done: already detached
	}
	c.eng.NoteTransport(args.Retries, args.Reconnects)
	if c.journal != nil {
		c.journal.Record(obs.Event{Kind: "deregister", Worker: args.Worker, Fields: map[string]any{
			"retries": args.Retries, "reconnects": args.Reconnects,
		}})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A worker that detached mid-lease (context cancelled, Stop seen)
	// flushed what it had; the rest of its window goes back in the
	// queue for someone else.
	c.reissueLocked(args.Worker, rem)
	c.maybeCompleteLocked()
	return nil
}

func (c *Coordinator) maybeCompleteLocked() {
	if c.eng.Active() == 0 && (c.stopped.Load() || c.eng.TargetReached()) {
		select {
		case <-c.completed:
		default:
			close(c.completed)
		}
	}
}

// Stop tells all workers (at their next push) to stop, even if the
// sample target has not been reached — the job-kill path.
func (c *Coordinator) Stop() {
	c.stopped.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maybeCompleteLocked()
}

// Wait blocks until the sample target is reached and all workers have
// detached, or ctx is cancelled (which stops the job). It then writes
// the final results and returns the merged report.
func (c *Coordinator) Wait(ctx context.Context) (stat.Report, error) {
	select {
	case <-c.completed:
	case <-ctx.Done():
		c.Stop()
		// Give workers a bounded grace period to drain, then finalize
		// with whatever has arrived.
		select {
		case <-c.completed:
		case <-time.After(5 * time.Second):
		}
	}
	return c.eng.Finalize()
}

// N returns the current total sample volume (including any resumed
// base).
func (c *Coordinator) N() int64 { return c.eng.N() }

// Status is a point-in-time view of the coordinator, including the
// collector engine's metrics. The JSON tags are the /statusz wire
// format of the ops HTTP server.
type Status struct {
	N               int64                   `json:"n"`                // total sample volume (incl. resumed base)
	ActiveWorkers   int                     `json:"active_workers"`   // workers currently attached
	Stopped         bool                    `json:"stopped"`          // Stop was called
	TargetReached   bool                    `json:"target_reached"`   // the sample target has been met
	Metrics         collect.MetricsSnapshot `json:"metrics"`          // engine counters
	LeasesGranted   int64                   `json:"leases_granted"`   // leases handed to workers
	LeasesReissued  int64                   `json:"leases_reissued"`  // remainders reissued after a holder died
	LeasesPending   int                     `json:"leases_pending"`   // leases waiting for a worker
	Heartbeats      int64                   `json:"heartbeats"`       // explicit heartbeat RPCs received
	HeartbeatMisses int64                   `json:"heartbeat_misses"` // supervision ticks that found an overdue worker
}

// Status reports the coordinator's current state and metrics.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	pending := c.lm.pendingCount()
	c.mu.Unlock()
	stopped := c.stopped.Load()
	return Status{
		N:               c.eng.N(),
		ActiveWorkers:   c.eng.Active(),
		Stopped:         stopped,
		TargetReached:   c.eng.TargetReached(),
		Metrics:         c.eng.Metrics(),
		LeasesGranted:   c.cm.leasesGranted.Value(),
		LeasesReissued:  c.cm.leasesReissued.Value(),
		LeasesPending:   pending,
		Heartbeats:      c.cm.heartbeats.Value(),
		HeartbeatMisses: c.cm.heartbeatMisses.Value(),
	}
}

// Close shuts down the coordinator: it stops accepting new workers,
// waits up to the configured DrainTimeout for in-flight worker
// connections to finish their RPCs (so a final subtotal flush racing
// shutdown is merged, not dropped with a spurious error), then
// force-closes whatever remains, and stops the reaper.
func (c *Coordinator) Close() error {
	select {
	case <-c.reaperStop:
	default:
		close(c.reaperStop)
	}
	err := c.ln.Close()

	c.connMu.Lock()
	c.closing = true
	c.connMu.Unlock()

	if c.drain > 0 {
		drained := make(chan struct{})
		go func() {
			c.serving.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(c.drain):
		}
	}

	// Force-close stragglers (wedged or still-connected workers) so
	// their ServeConn goroutines terminate.
	c.connMu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.connMu.Unlock()
	c.serving.Wait()
	return err
}

// The worker half of the protocol lives in worker.go: RunWorker, built
// on the retrying, reconnecting ResilientClient in retry.go.
