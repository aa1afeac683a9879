package runmgr

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/workload"
)

// FleetServiceName is the RPC service the run manager exposes to its
// worker fleet. It is distinct from the single-run cluster protocol
// (cluster.ServiceName): a fleet worker serves many runs and pulls
// work instead of being bound to one job at registration.
const FleetServiceName = "ParmoncFleet"

// AttachArgs/AttachReply: a fleet worker joins the pool. ClientID makes
// the attach idempotent across at-least-once retries — a retried attach
// with the same ClientID returns the original worker index.
type AttachArgs struct {
	Hostname string
	ClientID string
}

type AttachReply struct {
	Worker int
	// Epoch is the service epoch of the incarnation that admitted the
	// worker. The worker echoes it on every subsequent call; after a
	// coordinator restart the echo no longer matches and the call is
	// fenced (pushes) or redirected to re-attach (pulls) — the guarantee
	// that a grant from a dead incarnation can never double-merge.
	Epoch uint64
}

// PullArgs/PullReply: a worker asks the fair-share scheduler for work.
// Granted=false means "nothing for you right now"; Stop means the
// service is shutting down; Reattach means the worker's incarnation
// died and it should attach again (keeping its caches). Every call
// carries the epoch Attach returned; there is no unfenced caller.
//
// Wait is the long-poll ask: how long the worker is willing to have
// the coordinator hold an ungranted pull open waiting for work. The
// effective hold is the smaller of Wait and the coordinator's
// Config.PullWait, so an ungranted reply means the hold ran out (or a
// wake found nothing for this worker) and pulling again immediately is
// the intended cadence.
type PullArgs struct {
	Worker int
	Epoch  uint64
	Wait   time.Duration
}

type PullReply struct {
	Granted  bool
	Stop     bool
	Reattach bool
	Task     Task
}

// Task is one granted lease plus everything a worker needs to execute
// it without any local state about the run: the canonical scenario (the
// worker resolves it against its own registry and must reproduce the
// coordinator's fingerprint bit-for-bit), the matrix dimensions, the
// RNG parameters and experiment subsequence, and the push cadence.
type Task struct {
	RunID       string
	Scenario    string // canonical workload.Spec JSON
	Fingerprint string
	Nrow, Ncol  int
	SeqNum      uint64
	Params      rng.Params
	Gamma       float64
	PassEvery   int64
	Lease       collect.Lease
}

// PushEntry is one completed push window inside a PushBatch: a subtotal
// snapshot and the lease it advances. Done is cumulative within the
// granted lease window. Snap is a deep copy the batcher owns until the
// batch's verdict is back; the coordinator borrows it (see stat.Snapshot).
type PushEntry struct {
	RunID   string
	LeaseID uint64
	Done    int64
	Snap    stat.Snapshot
}

// PushBatchArgs/PushBatchReply: the push path. A worker batches the
// windows it completed — possibly across several runs and leases — into
// one RPC; the coordinator applies them in order, so for any single
// lease the done ledger sees a strictly-increasing window sequence
// whatever the batch shape, and dedups each entry on its absolute
// substream position. Entries answers verdicts positionally: Fenced
// tells the worker its grant was revoked (abandon the task, pull
// again), Final that the run finished (same reaction), and Err carries
// an application-level rejection of that entry alone (the rest of the
// batch still lands).
//
// RetryAfter is soft backpressure: when positive, some pushed run's
// collector saves are falling behind its averaging period, and the
// worker should stretch its flush cadence by at least this much
// instead of piling more windows on. It is advisory — ignoring it
// costs throughput, never correctness.
//
// Over TCP the args travel as a binary frame (see MarshalBinary), not
// as gob-reflected fields.
type PushBatchArgs struct {
	Worker  int
	Epoch   uint64
	Entries []PushEntry
}

type PushEntryReply struct {
	Fenced bool
	Final  bool
	Err    string
}

type PushBatchReply struct {
	Entries    []PushEntryReply
	RetryAfter time.Duration
}

// NackArgs: the worker cannot serve this task's scenario (workload not
// registered, or it resolves to a different fingerprint). The lease is
// requeued for other workers and this worker is excluded from the run.
type NackArgs struct {
	Worker  int
	Epoch   uint64
	RunID   string
	LeaseID uint64
	Reason  string
}

type NackReply struct{}

// FailArgs: a realization failed definitively; the run fails. Epoch is
// captured when the task starts: a failure detected against a dead
// incarnation (e.g. its push path went down with it) is ignored by the
// restarted service instead of killing a recovering run.
type FailArgs struct {
	Worker  int
	Epoch   uint64
	RunID   string
	LeaseID uint64
	Reason  string
}

type FailReply struct{}

// DetachArgs: the worker leaves the pool; its leases are reissued.
type DetachArgs struct {
	Worker int
	Epoch  uint64
}

type DetachReply struct{}

// fleetAPI is the transport-neutral fleet protocol: implemented by
// localFleet (direct method calls, the in-process fleet) and rpcFleet
// (net/rpc over TCP through a ResilientClient). The worker loop is
// written against this interface once, so both transports execute
// byte-identical work.
type fleetAPI interface {
	Attach(ctx context.Context, a AttachArgs) (AttachReply, error)
	Pull(ctx context.Context, a PullArgs) (PullReply, error)
	PushBatch(ctx context.Context, a PushBatchArgs) (PushBatchReply, error)
	Nack(ctx context.Context, a NackArgs) error
	Fail(ctx context.Context, a FailArgs) error
	Detach(ctx context.Context, a DetachArgs) error
}

// localFleet calls the manager directly — the in-process transport.
type localFleet struct{ m *Manager }

func (lf localFleet) Attach(_ context.Context, a AttachArgs) (AttachReply, error) {
	return lf.m.attach(a)
}
func (lf localFleet) Pull(ctx context.Context, a PullArgs) (PullReply, error) {
	// The worker's context reaches the long-poll, so a canceled local
	// worker unparks immediately instead of riding out the hold.
	return lf.m.pullTask(ctx, a)
}
func (lf localFleet) PushBatch(_ context.Context, a PushBatchArgs) (PushBatchReply, error) {
	return lf.m.pushBatch(a)
}
func (lf localFleet) Nack(_ context.Context, a NackArgs) error { return lf.m.nackTask(a) }
func (lf localFleet) Fail(_ context.Context, a FailArgs) error { return lf.m.failTask(a) }
func (lf localFleet) Detach(_ context.Context, a DetachArgs) error {
	return lf.m.detach(a)
}

// fleetService adapts the manager to net/rpc method shapes.
type fleetService struct{ m *Manager }

func (s *fleetService) Attach(a AttachArgs, r *AttachReply) error {
	rep, err := s.m.attach(a)
	*r = rep
	return err
}

func (s *fleetService) Pull(a PullArgs, r *PullReply) error {
	// No per-call context over net/rpc; a parked pull is unblocked by
	// its deadline or by the manager waking/stopping it.
	rep, err := s.m.pullTask(context.Background(), a)
	*r = rep
	return err
}

func (s *fleetService) PushBatch(a PushBatchArgs, r *PushBatchReply) error {
	rep, err := s.m.pushBatch(a)
	*r = rep
	return err
}

func (s *fleetService) Nack(a NackArgs, _ *NackReply) error { return s.m.nackTask(a) }

func (s *fleetService) Fail(a FailArgs, _ *FailReply) error { return s.m.failTask(a) }

func (s *fleetService) Detach(a DetachArgs, _ *DetachReply) error { return s.m.detach(a) }

// ServeFleet exposes the fleet protocol on ln. Multiple listeners may
// serve one manager; all close with the manager.
func (m *Manager) ServeFleet(ln net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(FleetServiceName, &fleetService{m}); err != nil {
		return err
	}
	m.lnMu.Lock()
	if m.lnClosed {
		m.lnMu.Unlock()
		ln.Close()
		return ErrClosed
	}
	m.lns = append(m.lns, ln)
	m.lnMu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			m.lnMu.Lock()
			if m.lnClosed {
				m.lnMu.Unlock()
				conn.Close()
				return
			}
			m.conns[conn] = struct{}{}
			m.lnMu.Unlock()
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				srv.ServeConn(conn)
				m.lnMu.Lock()
				delete(m.conns, conn)
				m.lnMu.Unlock()
				conn.Close()
			}()
		}
	}()
	return nil
}

// rpcFleet is the TCP transport: every call goes through a
// ResilientClient, so transport faults are retried with backoff and
// reconnect while application rejections (rpc.ServerError) stay
// definitive. The protocol is retry-safe by construction: Attach is
// idempotent per ClientID, PushBatch dedups on the absolute substream
// sequence, and Nack/Fail/Detach are no-ops once applied.
type rpcFleet struct{ rc *cluster.ResilientClient }

func (rf rpcFleet) Attach(ctx context.Context, a AttachArgs) (AttachReply, error) {
	var r AttachReply
	err := rf.rc.Call(ctx, FleetServiceName+".Attach", a, &r)
	return r, err
}

func (rf rpcFleet) Pull(ctx context.Context, a PullArgs) (PullReply, error) {
	var r PullReply
	// A long-polled pull is parked server-side on purpose; budget the
	// attempt for the requested hold plus the normal call headroom so
	// the resilient client does not tear down a healthy parked call.
	timeout := rf.rc.Policy().CallTimeout + a.Wait
	err := rf.rc.CallWithDeadline(ctx, FleetServiceName+".Pull", a, &r, timeout)
	return r, err
}

func (rf rpcFleet) PushBatch(ctx context.Context, a PushBatchArgs) (PushBatchReply, error) {
	var r PushBatchReply
	err := rf.rc.Call(ctx, FleetServiceName+".PushBatch", a, &r)
	return r, err
}

func (rf rpcFleet) Nack(ctx context.Context, a NackArgs) error {
	var r NackReply
	return rf.rc.Call(ctx, FleetServiceName+".Nack", a, &r)
}

func (rf rpcFleet) Fail(ctx context.Context, a FailArgs) error {
	var r FailReply
	return rf.rc.Call(ctx, FleetServiceName+".Fail", a, &r)
}

func (rf rpcFleet) Detach(ctx context.Context, a DetachArgs) error {
	var r DetachReply
	return rf.rc.Call(ctx, FleetServiceName+".Detach", a, &r)
}

// FleetWorkerConfig tunes one fleet worker.
type FleetWorkerConfig struct {
	// Hostname labels the worker in journals; default os.Hostname.
	Hostname string
	// ClientID makes attach idempotent across retries; default a
	// process-unique string.
	ClientID string
	// PullWait asks the coordinator to hold an ungranted pull open this
	// long waiting for work (long-poll); the coordinator may cap it.
	// Zero selects 10 s; negative is an error.
	PullWait time.Duration
	// FlushInterval is the target push cadence: completed push windows
	// are coalesced into one PushBatch until this much time has passed
	// since the last flush (the batch also flushes at MaxBatch, and
	// always before the next pull). Zero selects 50 ms; negative is an
	// error.
	FlushInterval time.Duration
	// MaxBatch caps the windows one PushBatch may carry. Default 64.
	MaxBatch int
	// Retry tunes the TCP transport (ignored by local workers).
	Retry cluster.RetryPolicy
}

var fleetClientSeq atomic.Int64

func (cfg FleetWorkerConfig) withDefaults() (FleetWorkerConfig, error) {
	if cfg.PullWait < 0 {
		return cfg, fmt.Errorf("runmgr: negative FleetWorkerConfig.PullWait %v", cfg.PullWait)
	}
	if cfg.FlushInterval < 0 {
		return cfg, fmt.Errorf("runmgr: negative FleetWorkerConfig.FlushInterval %v", cfg.FlushInterval)
	}
	if cfg.Hostname == "" {
		cfg.Hostname, _ = os.Hostname()
	}
	if cfg.ClientID == "" {
		cfg.ClientID = fmt.Sprintf("%s-%d-%d", cfg.Hostname, os.Getpid(), fleetClientSeq.Add(1))
	}
	if cfg.PullWait == 0 {
		cfg.PullWait = 10 * time.Second
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 50 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	return cfg, nil
}

// FleetWorkerReport summarizes one worker's service.
type FleetWorkerReport struct {
	Worker       int
	Realizations int64
	Pushes       int64 // push windows delivered
	Batches      int64 // PushBatch RPCs sent
	Nacks        int64
	Retries      int64 // transport retries (TCP workers only)
	Reconnects   int64 // redials after connection loss (TCP workers only)
}

// maxReattachStreak bounds consecutive Reattach redirects: a
// coordinator stuck answering Reattach (e.g. crash-looping through
// recovery) must not hold the worker in an infinite attach cycle.
const maxReattachStreak = 5

// reattachPause waits before re-attach attempt n (1-based): 50 ms
// doubling per attempt, ±10% jitter so a fleet redirected by the same
// restart does not re-attach in lockstep. False means the context was
// canceled first.
func reattachPause(ctx context.Context, n int) bool {
	d := float64(50*time.Millisecond<<(n-1)) * (0.9 + 0.2*rand.Float64())
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// leaseKey identifies one grant across runs (lease IDs are only unique
// within a run).
type leaseKey struct {
	run string
	id  uint64
}

// pushBatcher coalesces completed push windows into PushBatch RPCs.
// Windows accumulate across tasks (and runs) and flush when the batch
// is full, when the cadence interval has elapsed, and always before
// the worker pulls again — a long-poll may park the worker for
// seconds, and a buffered window may be exactly the one its run's
// completion is waiting on. Buffering snapshots is safe because
// stat.Accumulator.Snapshot is a deep copy: the worker resets its
// local accumulator and keeps simulating while windows wait.
//
// The reply's RetryAfter stretches the cadence (backpressure from a
// collector whose saves are falling behind); replies without it decay
// the cadence back toward the configured interval.
type pushBatcher struct {
	api     fleetAPI
	cfg     FleetWorkerConfig
	rep     *FleetWorkerReport
	entries []PushEntry
	last    time.Time
	cadence time.Duration
	ended   map[leaseKey]bool // leases fenced, finalized or rejected by a flush
}

func newPushBatcher(api fleetAPI, cfg FleetWorkerConfig, rep *FleetWorkerReport) *pushBatcher {
	return &pushBatcher{
		api:     api,
		cfg:     cfg,
		rep:     rep,
		last:    time.Now(),
		cadence: cfg.FlushInterval,
		ended:   map[leaseKey]bool{},
	}
}

// add appends one completed window and flushes when the batch is full
// or the cadence elapsed. The returned error reflects a failed flush;
// callers also check done() for their own lease's verdict.
func (b *pushBatcher) add(ctx context.Context, worker int, epoch uint64, e PushEntry) error {
	b.entries = append(b.entries, e)
	if len(b.entries) >= b.cfg.MaxBatch || time.Since(b.last) >= b.cadence {
		return b.flush(ctx, worker, epoch)
	}
	return nil
}

// done reports whether a flush ended the given lease: fenced, run
// finished, or the entry was rejected.
func (b *pushBatcher) done(runID string, leaseID uint64) bool {
	return b.ended[leaseKey{runID, leaseID}]
}

// flush sends the buffered windows as one PushBatch and applies the
// per-entry verdicts. After a transport failure (or a rejected batch
// call) this worker cannot advance the affected leases: report each via
// Fail and abandon — an unreachable coordinator ignores the report and
// the leases time out and reissue.
func (b *pushBatcher) flush(ctx context.Context, worker int, epoch uint64) error {
	if len(b.entries) == 0 {
		return nil
	}
	args := PushBatchArgs{Worker: worker, Epoch: epoch, Entries: b.entries}
	b.entries = nil
	b.last = time.Now()
	r, err := b.api.PushBatch(ctx, args)
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		seen := map[leaseKey]bool{}
		for _, e := range args.Entries {
			k := leaseKey{e.RunID, e.LeaseID}
			b.ended[k] = true
			if seen[k] {
				continue
			}
			seen[k] = true
			_ = b.api.Fail(ctx, FailArgs{Worker: worker, Epoch: epoch, RunID: e.RunID, LeaseID: e.LeaseID, Reason: err.Error()})
		}
		return err
	}
	b.rep.Pushes += int64(len(args.Entries))
	b.rep.Batches++
	for i, er := range r.Entries {
		if i >= len(args.Entries) {
			break
		}
		e := args.Entries[i]
		switch {
		case er.Err != "":
			b.ended[leaseKey{e.RunID, e.LeaseID}] = true
			_ = b.api.Fail(ctx, FailArgs{Worker: worker, Epoch: epoch, RunID: e.RunID, LeaseID: e.LeaseID, Reason: er.Err})
		case er.Fenced || er.Final:
			b.ended[leaseKey{e.RunID, e.LeaseID}] = true
		}
	}
	if r.RetryAfter > b.cfg.FlushInterval {
		b.cadence = r.RetryAfter
	} else if b.cadence > b.cfg.FlushInterval {
		b.cadence = b.cfg.FlushInterval + (b.cadence-b.cfg.FlushInterval)/2
	}
	return nil
}

// runFleetLoop is the worker side of the fleet protocol, shared by
// both transports: attach once, then pull → execute → push until the
// service says Stop or the context is canceled.
func runFleetLoop(ctx context.Context, api fleetAPI, cfg FleetWorkerConfig) (FleetWorkerReport, error) {
	var rep FleetWorkerReport
	cfg, err := cfg.withDefaults()
	if err != nil {
		return rep, err
	}
	at, err := api.Attach(ctx, AttachArgs{Hostname: cfg.Hostname, ClientID: cfg.ClientID})
	if err != nil {
		return rep, fmt.Errorf("runmgr: fleet attach: %w", err)
	}
	rep.Worker = at.Worker
	defer func() {
		// Detach even when the context is already canceled, so the
		// scheduler reissues our leases immediately instead of waiting
		// for the lease timeout.
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = api.Detach(dctx, DetachArgs{Worker: at.Worker, Epoch: at.Epoch})
	}()
	realizers := map[string]core.Realization{}
	batcher := newPushBatcher(api, cfg, &rep)
	reattaches := 0
	for {
		if ctx.Err() != nil {
			return rep, nil
		}
		// Flush coalesced windows before asking for more work: the pull
		// may park in the coordinator's long-poll, and a buffered window
		// may be the one its run's completion is waiting on.
		_ = batcher.flush(ctx, at.Worker, at.Epoch)
		if ctx.Err() != nil {
			return rep, nil
		}
		pr, err := api.Pull(ctx, PullArgs{Worker: at.Worker, Epoch: at.Epoch, Wait: cfg.PullWait})
		if err != nil {
			if ctx.Err() != nil {
				return rep, nil
			}
			return rep, fmt.Errorf("runmgr: fleet pull: %w", err)
		}
		if pr.Stop {
			return rep, nil
		}
		if pr.Reattach {
			// The coordinator restarted under a new epoch. Re-attach and
			// keep serving — realizer caches stay valid (same scenarios),
			// only the worker identity and epoch are reissued. A
			// coordinator mid-recovery can keep answering Reattach, so
			// back off between attempts and give up after a bounded
			// streak instead of retrying in a tight storm.
			reattaches++
			if reattaches > maxReattachStreak {
				return rep, fmt.Errorf("runmgr: fleet worker %d: %d consecutive re-attach redirects, coordinator not converging", at.Worker, reattaches)
			}
			if !reattachPause(ctx, reattaches) {
				return rep, nil
			}
			at, err = api.Attach(ctx, AttachArgs{Hostname: cfg.Hostname, ClientID: cfg.ClientID})
			if err != nil {
				if ctx.Err() != nil {
					return rep, nil
				}
				return rep, fmt.Errorf("runmgr: fleet re-attach: %w", err)
			}
			rep.Worker = at.Worker
			continue
		}
		reattaches = 0
		if !pr.Granted {
			// The coordinator held this pull for the long-poll window;
			// pulling right back is the intended ~1 RPC per wait window
			// cadence.
			continue
		}
		executeTask(ctx, api, at.Worker, at.Epoch, pr.Task, realizers, batcher, &rep)
	}
}

// executeTask simulates one granted lease window, handing the batcher
// a subtotal at every PassEvery boundary and at the window end. It
// never flushes a partial window: an abandoned task (cancellation,
// fencing, run completion) leaves the done ledger at the last acked
// boundary and the remainder is recomputed from there — that discipline
// is what makes each processor shard's push-window sequence a pure
// function of the lease partition and PassEvery, and so the report
// bit-identical no matter how execution interleaves or how windows are
// batched.
func executeTask(ctx context.Context, api fleetAPI, worker int, epoch uint64, task Task, realizers map[string]core.Realization, batcher *pushBatcher, rep *FleetWorkerReport) {
	realize, ok := realizers[task.RunID]
	if !ok {
		r, err := resolveTask(task, worker)
		if err != nil {
			rep.Nacks++
			_ = api.Nack(ctx, NackArgs{Worker: worker, Epoch: epoch, RunID: task.RunID, LeaseID: task.Lease.ID, Reason: err.Error()})
			return
		}
		realize = r
		realizers[task.RunID] = realize
	}
	if ctx.Err() != nil {
		return
	}
	l := task.Lease
	local := stat.New(task.Nrow, task.Ncol)
	var done int64
	err := core.RunLease(task.Params, task.SeqNum, l, task.PassEvery, realize, local, func(b core.Block) (bool, error) {
		rep.Realizations += b.Size
		if b.Cut {
			done += local.N()
			// Buffer the window (Snapshot is a deep copy) and keep
			// simulating; the batcher decides when the wire sees it. A
			// flush verdict that ended this lease — fenced, run finished,
			// entry rejected — abandons the task, as does a failed flush
			// (which already reported the lease).
			if err := batcher.add(ctx, worker, epoch, PushEntry{
				RunID: task.RunID, LeaseID: l.ID, Done: done, Snap: local.Snapshot(),
			}); err != nil || batcher.done(task.RunID, l.ID) {
				return false, nil
			}
			local.Reset()
		}
		// A canceled worker abandons mid-window; nothing partial leaves it.
		return ctx.Err() == nil, nil
	})
	if err != nil {
		_ = api.Fail(ctx, FailArgs{Worker: worker, Epoch: epoch, RunID: task.RunID, LeaseID: l.ID, Reason: err.Error()})
	}
}

// resolveTask resolves the task's scenario against this process's
// workload registry and verifies the fingerprint matches the
// coordinator's — the cluster identity check, extended to a fleet that
// serves many scenarios.
func resolveTask(task Task, worker int) (core.Realization, error) {
	spec, err := workload.ParseSpec([]byte(task.Scenario))
	if err != nil {
		return nil, err
	}
	def, v, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	id, err := def.Identity(v)
	if err != nil {
		return nil, err
	}
	if fp := id.Fingerprint(); fp != task.Fingerprint {
		return nil, fmt.Errorf("workload %s resolves to %s here, but the run wants %s",
			spec.Workload, fp, task.Fingerprint)
	}
	if id.Nrow != task.Nrow || id.Ncol != task.Ncol {
		return nil, fmt.Errorf("workload %s is %d×%d here, but the run is %d×%d",
			spec.Workload, id.Nrow, id.Ncol, task.Nrow, task.Ncol)
	}
	factory, err := def.Factory(v)
	if err != nil {
		return nil, err
	}
	return factory.Build(worker)
}

// FleetGroup is a set of running fleet workers.
type FleetGroup struct {
	wg      sync.WaitGroup
	mu      sync.Mutex
	reports []FleetWorkerReport
	errs    []error
}

// Wait blocks until every worker in the group has exited and returns
// their reports and the first error, if any.
func (g *FleetGroup) Wait() ([]FleetWorkerReport, error) {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	var err error
	if len(g.errs) > 0 {
		err = g.errs[0]
	}
	return g.reports, err
}

// StartLocalWorkers runs n in-process fleet workers against the
// manager — the goroutine transport. They exit when ctx is canceled or
// the manager closes.
func (m *Manager) StartLocalWorkers(ctx context.Context, n int, cfg FleetWorkerConfig) *FleetGroup {
	g := &FleetGroup{}
	for i := 0; i < n; i++ {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			c := cfg
			c.ClientID = "" // each worker gets its own identity
			rep, err := runFleetLoop(ctx, localFleet{m}, c)
			g.mu.Lock()
			defer g.mu.Unlock()
			g.reports = append(g.reports, rep)
			if err != nil {
				g.errs = append(g.errs, err)
			}
		}()
	}
	return g
}

// RunFleetWorker serves the manager at addr over TCP until ctx is
// canceled or the service stops — the `parmonc worker -service` loop.
func RunFleetWorker(ctx context.Context, addr string, cfg FleetWorkerConfig) (FleetWorkerReport, error) {
	rc := cluster.NewResilientClient(addr, cfg.Retry)
	defer rc.Close()
	rep, err := runFleetLoop(ctx, rpcFleet{rc}, cfg)
	stats := rc.Stats()
	rep.Retries = stats.Retries
	rep.Reconnects = stats.Reconnects
	return rep, err
}
