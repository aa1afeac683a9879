package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/obs"
	"parmonc/internal/stat"
	"parmonc/internal/workload"
)

// WorkerConfig tunes RunWorker beyond the address.
type WorkerConfig struct {
	// Workload is the parameter-resolved identity of the realization
	// routine this worker runs; the coordinator rejects any identity
	// mismatch at registration when its JobSpec also carries one. The
	// zero Identity is an unnamed user factory and is not checked.
	Workload workload.Identity
	// Hostname is informational (default: os.Hostname).
	Hostname string
	// Retry governs reconnect/retry behavior; the zero value uses
	// DefaultRetryPolicy.
	Retry RetryPolicy

	// Registry, if non-nil, receives the worker-side series: retries,
	// reconnects, realization and push-round-trip timing, labeled with
	// the assigned processor index. Serve it with obs.Serve (the
	// parmonc worker --http flag) to watch a worker live.
	Registry *obs.Registry

	// Journal, if non-nil, receives worker-side session events
	// (register, done) with push, lease and retry attribution; no line
	// is written per push. The caller owns the journal and closes it
	// after the session.
	Journal *obs.Journal
}

// workerObs bundles the worker-side instrumentation; nil disables it.
type workerObs struct {
	realizations *obs.Counter
	pushes       *obs.Counter
	realizeSec   *obs.Histogram
	pushSec      *obs.Histogram
}

// newWorkerObs registers the worker series once the processor index is
// known (it is the label distinguishing co-hosted workers). Retries
// and reconnects are read straight off the resilient client at scrape
// time, so the series stay current mid-backoff without touching the
// worker loop.
func newWorkerObs(reg *obs.Registry, w int, rc *ResilientClient) *workerObs {
	if reg == nil {
		return nil
	}
	label := obs.L("worker", strconv.Itoa(w))
	reg.GaugeFunc("parmonc_worker_retries", "RPC attempts beyond the first.",
		func() float64 { return float64(rc.Stats().Retries) }, label)
	reg.GaugeFunc("parmonc_worker_reconnects", "Dials beyond the first successful one.",
		func() float64 { return float64(rc.Stats().Reconnects) }, label)
	return &workerObs{
		realizations: reg.Counter("parmonc_worker_realizations_total", "Realizations simulated by this worker.", label),
		pushes:       reg.Counter("parmonc_worker_pushes_total", "Subtotal pushes acknowledged by the coordinator.", label),
		realizeSec: reg.Histogram("parmonc_worker_realization_seconds", "Mean wall time of one realization, observed once per timed block of realizations.",
			obs.ExpBuckets(1e-6, 4, 16), label),
		pushSec: reg.Histogram("parmonc_worker_push_seconds", "Round-trip time of one push RPC, retries and backoff included.",
			obs.ExpBuckets(1e-4, 4, 12), label),
	}
}

// WorkerReport summarizes one worker session: how much it simulated
// and how much resilience work the transport needed. The same counters
// reach the coordinator's collector metrics via Done.
type WorkerReport struct {
	Worker       int   // assigned worker index (0 if never registered)
	Realizations int64 // realizations simulated
	Pushes       int64 // subtotal snapshots acknowledged by the coordinator
	Leases       int64 // leases fully completed
	Retries      int64 // RPC attempts beyond the first
	Reconnects   int64 // dials beyond the first successful one
}

// newClientID returns a random identity for idempotent registration.
func newClientID() string {
	var b [12]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to a time-derived identity; uniqueness, not
		// secrecy, is all registration needs.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// errWorkerStopped is the internal signal that the coordinator told
// this session to stop during a re-register.
var errWorkerStopped = errors.New("cluster: coordinator said stop")

// RunWorker is the worker half of the protocol — the paper's analogue
// is an MPI rank executing the user program. It registers idempotently
// (a retried Register after a lost reply reclaims the same worker index
// and epoch), then loops acquiring leases — contiguous windows of
// realization substreams — and simulating them with the
// factory-produced routine, pushing subtotal snapshots every PassEvery
// realizations and at every lease boundary, until the coordinator says
// stop or ctx is cancelled. Transport faults are survived per
// cfg.Retry: calls are retried with backoff and the connection is
// re-established after a loss. Pushes carry monotonic sequence numbers
// so the coordinator can deduplicate redeliveries (at-least-once
// delivery, exactly-once merge) plus the worker's registration epoch
// and lease progress, so a session the coordinator has declared dead is
// fenced instead of double-merged. A fenced worker abandons its local
// subtotals (the lease remainder has been reissued elsewhere),
// re-registers into a fresh epoch and keeps working. When the job
// defines a heartbeat interval, a background loop proves liveness
// between pushes with the explicit Heartbeat RPC — so a slow-but-alive
// worker is never pruned.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig, factory core.Factory) (rep WorkerReport, err error) {
	if factory == nil {
		return rep, errors.New("cluster: nil realization factory")
	}
	if cfg.Hostname == "" {
		cfg.Hostname, _ = os.Hostname()
		if cfg.Hostname == "" {
			cfg.Hostname = "worker"
		}
	}
	rc := NewResilientClient(addr, cfg.Retry)
	defer rc.Close()
	defer func() {
		st := rc.Stats()
		rep.Retries, rep.Reconnects = st.Retries, st.Reconnects
	}()

	var reg RegisterReply
	regArgs := RegisterArgs{Hostname: cfg.Hostname, Workload: cfg.Workload, ClientID: newClientID()}
	if err := rc.Call(ctx, ServiceName+".Register", regArgs, &reg); err != nil {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		return rep, fmt.Errorf("cluster: register: %w", err)
	}
	if reg.Stop {
		return rep, nil
	}
	spec := reg.Spec
	w := reg.Worker
	rep.Worker = w

	// The epoch is the only session state the heartbeat goroutine
	// shares with the main loop; it changes on re-registration.
	var sessMu sync.Mutex
	epoch := reg.Epoch
	getEpoch := func() uint64 {
		sessMu.Lock()
		defer sessMu.Unlock()
		return epoch
	}
	setEpoch := func(e uint64) {
		sessMu.Lock()
		defer sessMu.Unlock()
		epoch = e
	}
	// lastContact is when this session last completed any RPC, so the
	// heartbeat loop only speaks up when the main loop has gone quiet.
	var lastContact atomic.Int64
	touch := func() { lastContact.Store(time.Now().UnixNano()) }
	touch()

	wo := newWorkerObs(cfg.Registry, w, rc)
	if cfg.Journal != nil {
		cfg.Journal.Record(obs.Event{Kind: "register", Worker: w, Fields: map[string]any{
			"addr": addr, "workload": cfg.Workload.Fingerprint(), "epoch": reg.Epoch,
		}})
		defer func() {
			st := rc.Stats()
			cfg.Journal.Record(obs.Event{Kind: "done", Worker: w, Samples: rep.Realizations,
				Fields: map[string]any{"pushes": rep.Pushes, "leases": rep.Leases,
					"retries": st.Retries, "reconnects": st.Reconnects}})
		}()
	}

	realize, err := factory.Build(w)
	if err != nil {
		return rep, fmt.Errorf("cluster: %w", err)
	}

	local := stat.New(spec.Nrow, spec.Ncol)
	var seq uint64

	// Heartbeats run on their own client and goroutine: the resilient
	// client is single-caller, and a heartbeat must get through while
	// the main loop is blocked inside a long realization or a retrying
	// push.
	if spec.Heartbeat > 0 {
		hctx, hcancel := context.WithCancel(context.Background())
		hbDone := make(chan struct{})
		defer func() { hcancel(); <-hbDone }()
		hb := NewResilientClient(addr, cfg.Retry)
		period := spec.Heartbeat / 2
		if period <= 0 {
			period = spec.Heartbeat
		}
		go func() {
			defer close(hbDone)
			defer hb.Close()
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-hctx.Done():
					return
				case <-tick.C:
					if time.Duration(time.Now().UnixNano()-lastContact.Load()) < period {
						continue // the main loop is talking; no need
					}
					var hr HeartbeatReply
					if err := hb.Call(hctx, ServiceName+".Heartbeat",
						HeartbeatArgs{Worker: w, Epoch: getEpoch()}, &hr); err == nil && !hr.Fenced {
						touch()
					}
				}
			}
		}()
	}

	// push sends the current subtotal under the next sequence number,
	// stamped with the session epoch and the lease progress it
	// advances. The payload is a view lent to the synchronous Call (see
	// stat.Snapshot); retries inside Call re-encode the identical
	// payload, which the coordinator deduplicates by seq.
	push := func(ctx context.Context, leaseID uint64, done int64) (stop, fenced bool, err error) {
		seq++
		args := PushArgs{Worker: w, Epoch: getEpoch(), Seq: seq, Lease: leaseID, Done: done, Snap: local.View()}
		var pr PushReply
		t0 := time.Now()
		if err := rc.Call(ctx, ServiceName+".Push", args, &pr); err != nil {
			return false, false, err
		}
		touch()
		local.Reset()
		if pr.Fenced {
			return false, true, nil
		}
		rep.Pushes++
		if wo != nil {
			wo.pushes.Inc()
			wo.pushSec.Observe(time.Since(t0).Seconds())
		}
		return pr.Stop, false, nil
	}

	// rejoin re-registers after a fence: same ClientID, so the
	// coordinator re-admits this process under the same index with a
	// bumped epoch and a fresh sequence space. Local subtotals were
	// already abandoned — the unmerged window is someone else's lease
	// now.
	rejoin := func(ctx context.Context) error {
		var rr RegisterReply
		if err := rc.Call(ctx, ServiceName+".Register", regArgs, &rr); err != nil {
			return err
		}
		if rr.Stop {
			return errWorkerStopped
		}
		setEpoch(rr.Epoch)
		seq = 0
		local.Reset()
		touch()
		if cfg.Journal != nil {
			cfg.Journal.Record(obs.Event{Kind: "register", Worker: w, Fields: map[string]any{
				"addr": addr, "workload": cfg.Workload.Fingerprint(), "epoch": rr.Epoch, "rejoin": true,
			}})
		}
		return nil
	}

	defer func() {
		// Detach on a context of its own: the run context may already
		// be cancelled, and the coordinator tolerates vanished workers,
		// so this is bounded best-effort. Done releases any lease this
		// worker still holds; the coordinator reissues the remainder.
		fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		st := rc.Stats()
		var dr DoneReply
		_ = rc.Call(fctx, ServiceName+".Done",
			DoneArgs{Worker: w, Retries: st.Retries, Reconnects: st.Reconnects}, &dr)
	}()

	// runLease simulates one lease window, pushing every PassEvery
	// realizations and at the window boundary so the coordinator's
	// ledger sees the lease complete.
	runLease := func(l collect.Lease) (stop, fenced bool, err error) {
		if ctx.Err() != nil {
			return true, false, nil
		}
		local.Reset()
		var done int64
		err = core.RunLease(spec.Params, spec.SeqNum, l, spec.PassEvery, realize, local, func(b core.Block) (bool, error) {
			done += b.Size
			rep.Realizations += b.Size
			if wo != nil {
				wo.realizations.Add(b.Size)
				wo.realizeSec.Observe(b.Elapsed.Seconds() / float64(b.Size))
			}
			if b.Cut {
				var perr error
				if stop, fenced, perr = push(ctx, l.ID, done); perr != nil {
					return false, fmt.Errorf("push: %w", perr)
				}
				if stop || fenced {
					return false, nil
				}
			}
			if ctx.Err() != nil {
				// Cancelled mid-window: flush the merged-prefix delta on
				// a bounded context so the acked ledger matches what the
				// coordinator reissues, then let the deferred Done
				// release the rest.
				if local.N() > 0 {
					fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					_, _, _ = push(fctx, l.ID, done)
					cancel()
				}
				stop = true
				return false, nil
			}
			return true, nil
		})
		if err != nil {
			return false, false, fmt.Errorf("cluster: %w", err)
		}
		if done == l.Count && !fenced {
			rep.Leases++
		}
		return stop, fenced, nil
	}

	pollDelay := spec.Heartbeat
	if pollDelay <= 0 {
		pollDelay = 200 * time.Millisecond
	}
	for {
		if ctx.Err() != nil {
			return rep, nil
		}
		var aq AcquireReply
		if err := rc.Call(ctx, ServiceName+".Acquire", AcquireArgs{Worker: w, Epoch: getEpoch()}, &aq); err != nil {
			if ctx.Err() != nil {
				return rep, nil
			}
			return rep, fmt.Errorf("cluster: acquire: %w", err)
		}
		touch()
		switch {
		case aq.Stop:
			return rep, nil
		case aq.Fenced:
			if err := rejoin(ctx); err != nil {
				if errors.Is(err, errWorkerStopped) || ctx.Err() != nil {
					return rep, nil
				}
				return rep, fmt.Errorf("cluster: re-register: %w", err)
			}
			continue
		case !aq.Granted:
			select {
			case <-ctx.Done():
				return rep, nil
			case <-time.After(pollDelay):
			}
			continue
		}
		stop, fenced, err := runLease(aq.Lease)
		if err != nil {
			return rep, err
		}
		if stop {
			return rep, nil
		}
		if fenced {
			if err := rejoin(ctx); err != nil {
				if errors.Is(err, errWorkerStopped) || ctx.Err() != nil {
					return rep, nil
				}
				return rep, fmt.Errorf("cluster: re-register: %w", err)
			}
		}
	}
}
