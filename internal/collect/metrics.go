package collect

import (
	"fmt"
	"io"
	"time"

	"parmonc/internal/obs"
)

// Metrics is the collector's built-in instrumentation. Since the obs
// subsystem exists the counters live in an obs.Registry — so a running
// coordinator exposes them on /metrics in Prometheus format — but the
// hot merge path still pays exactly one atomic add per counter, cheap
// enough to stay on even under the paper's "strictest conditions" (a
// push per realization). Read a consistent view with Collector.Metrics.
type Metrics struct {
	pushes          *obs.Counter // Push calls received (incl. rejected)
	rejected        *obs.Counter // snapshots rejected before merging
	pushesInvalid   *obs.Counter // rejections caused by an invalid snapshot payload
	merges          *obs.Counter // snapshots merged into the total
	saves           *obs.Counter // averaging + save cycles completed
	saveNanos       *obs.Counter // cumulative save latency
	workerSnapshots *obs.Counter // per-worker snapshot files written
	registered      *obs.Counter // workers ever registered
	pruned          *obs.Counter // workers dropped for silence
	resumedSamples  *obs.Gauge   // sample volume inherited from resume

	redelivered      *obs.Counter // duplicate pushes deduplicated by sequence number
	workerRetries    *obs.Counter // RPC retries reported by detaching workers
	workerReconnects *obs.Counter // reconnects reported by detaching workers

	staleEpoch      *obs.Counter // pushes/heartbeats fenced for a stale epoch or revoked lease
	leasesCompleted *obs.Counter // leases whose full window has merged

	saveSeconds *obs.Histogram // save latency distribution
}

// newMetrics registers the collector series in reg. Registration is
// idempotent per (name, labels), so two collectors sharing a registry
// share counters — which is why production processes run one collector
// per registry.
func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		pushes:          reg.Counter("parmonc_collector_pushes_total", "Subtotal pushes received, including rejected ones."),
		rejected:        reg.Counter("parmonc_collector_rejected_snapshots_total", "Pushes rejected before merging (unknown worker or invalid snapshot)."),
		pushesInvalid:   reg.Counter("parmonc_collector_pushes_invalid_total", "Pushes rejected because the snapshot payload was invalid (NaN/Inf or negative moment sums, bad dimensions, inconsistent volume)."),
		merges:          reg.Counter("parmonc_collector_merges_total", "Snapshots merged into the running total (formula (5))."),
		saves:           reg.Counter("parmonc_collector_saves_total", "Averaging and save cycles completed."),
		saveNanos:       reg.Counter("parmonc_collector_save_nanoseconds_total", "Cumulative time spent in save cycles."),
		workerSnapshots: reg.Counter("parmonc_collector_worker_snapshots_total", "Per-worker snapshot files written for manaver."),
		registered:      reg.Counter("parmonc_collector_registered_workers_total", "Workers ever registered."),
		pruned:          reg.Counter("parmonc_collector_pruned_workers_total", "Workers dropped for silence."),
		resumedSamples:  reg.Gauge("parmonc_collector_resumed_samples", "Sample volume inherited from a resumed run."),
		redelivered:     reg.Counter("parmonc_collector_redeliveries_total", "Duplicate pushes acknowledged without merging (sequence-number dedup)."),
		workerRetries:   reg.Counter("parmonc_collector_worker_retries_total", "RPC retries reported by detaching workers."),
		workerReconnects: reg.Counter("parmonc_collector_worker_reconnects_total",
			"Reconnects reported by detaching workers."),
		staleEpoch: reg.Counter("parmonc_collector_stale_epoch_total",
			"Pushes and heartbeats fenced for a stale registration epoch or revoked lease."),
		leasesCompleted: reg.Counter("parmonc_collector_leases_completed_total",
			"Leases whose full realization window has been merged."),
		saveSeconds: reg.Histogram("parmonc_collector_save_seconds", "Save cycle latency in seconds.", obs.DefDurationBuckets()),
	}
}

func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Pushes:            m.pushes.Value(),
		RejectedSnapshots: m.rejected.Value(),
		PushesInvalid:     m.pushesInvalid.Value(),
		Merges:            m.merges.Value(),
		Saves:             m.saves.Value(),
		SaveLatency:       time.Duration(m.saveNanos.Value()),
		WorkerSnapshots:   m.workerSnapshots.Value(),
		RegisteredWorkers: m.registered.Value(),
		PrunedWorkers:     m.pruned.Value(),
		ResumedSamples:    int64(m.resumedSamples.Value()),
		Redeliveries:      m.redelivered.Value(),
		WorkerRetries:     m.workerRetries.Value(),
		WorkerReconnects:  m.workerReconnects.Value(),
		StaleEpochPushes:  m.staleEpoch.Value(),
		LeasesCompleted:   m.leasesCompleted.Value(),
	}
}

// MetricsSnapshot is a point-in-time copy of the collector counters,
// surfaced through core.Result, the cluster.Coordinator status API,
// the parmonc --stats flag, and the ops server's /statusz endpoint
// (whence the JSON tags).
type MetricsSnapshot struct {
	Pushes            int64         `json:"pushes"`             // subtotal pushes received
	RejectedSnapshots int64         `json:"rejected_snapshots"` // pushes rejected (unknown worker or invalid snapshot)
	PushesInvalid     int64         `json:"pushes_invalid"`     // rejections caused by an invalid snapshot payload
	Merges            int64         `json:"merges"`             // snapshots merged into the running total
	Saves             int64         `json:"saves"`              // averaging + save cycles
	SaveLatency       time.Duration `json:"save_latency_ns"`    // cumulative time spent saving
	WorkerSnapshots   int64         `json:"worker_snapshots"`   // per-worker snapshot files written
	RegisteredWorkers int64         `json:"registered_workers"` // workers ever registered
	PrunedWorkers     int64         `json:"pruned_workers"`     // workers dropped for silence
	ResumedSamples    int64         `json:"resumed_samples"`    // sample volume inherited from a resumed run
	Redeliveries      int64         `json:"redeliveries"`       // duplicate pushes acknowledged without merging
	WorkerRetries     int64         `json:"worker_retries"`     // RPC retries reported by detaching workers
	WorkerReconnects  int64         `json:"worker_reconnects"`  // reconnects reported by detaching workers
	StaleEpochPushes  int64         `json:"stale_epoch"`        // pushes/heartbeats fenced for a stale epoch or revoked lease
	LeasesCompleted   int64         `json:"leases_completed"`   // leases whose full window has merged
}

// MeanSaveLatency returns the average duration of one save cycle.
func (s MetricsSnapshot) MeanSaveLatency() time.Duration {
	if s.Saves == 0 {
		return 0
	}
	return s.SaveLatency / time.Duration(s.Saves)
}

// WriteTo prints the counters as an aligned key-value block (the
// --stats output format).
func (s MetricsSnapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, row := range []struct {
		key string
		val interface{}
	}{
		{"pushes", s.Pushes},
		{"merges", s.Merges},
		{"rejected_snapshots", s.RejectedSnapshots},
		{"pushes_invalid", s.PushesInvalid},
		{"saves", s.Saves},
		{"save_latency_total", s.SaveLatency},
		{"save_latency_mean", s.MeanSaveLatency()},
		{"worker_snapshots", s.WorkerSnapshots},
		{"registered_workers", s.RegisteredWorkers},
		{"pruned_workers", s.PrunedWorkers},
		{"resumed_samples", s.ResumedSamples},
		{"redeliveries", s.Redeliveries},
		{"worker_retries", s.WorkerRetries},
		{"worker_reconnects", s.WorkerReconnects},
		{"stale_epoch", s.StaleEpochPushes},
		{"leases_completed", s.LeasesCompleted},
	} {
		n, err := fmt.Fprintf(w, "%-24s %v\n", row.key, row.val)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// EventKind enumerates collector occurrences delivered to a Hook.
type EventKind int

const (
	EventPush          EventKind = iota // a subtotal push arrived
	EventReject                         // the push was rejected before merging
	EventMerge                          // the push was merged into the total
	EventSave                           // an averaging + save cycle completed
	EventPrune                          // a silent worker was dropped
	EventDuplicate                      // a redelivered push was deduplicated
	EventStale                          // a push/heartbeat was fenced (stale epoch or revoked lease)
	EventLeaseComplete                  // a lease's full realization window has merged
	EventInvalid                        // the push was rejected because its snapshot payload was invalid
)

// String returns the event kind's wire-stable name.
func (k EventKind) String() string {
	switch k {
	case EventPush:
		return "push"
	case EventReject:
		return "reject"
	case EventMerge:
		return "merge"
	case EventSave:
		return "save"
	case EventPrune:
		return "prune"
	case EventDuplicate:
		return "duplicate"
	case EventStale:
		return "stale_epoch"
	case EventLeaseComplete:
		return "lease_complete"
	case EventInvalid:
		return "push_invalid"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one collector occurrence. Worker is meaningful for push,
// reject, merge, prune, stale_epoch and lease_complete; Samples is the
// snapshot volume (push, reject, merge), the running total (save), or
// the lease window size (lease_complete); Elapsed is the save latency;
// Seq carries the lease ID for stale_epoch and lease_complete. Every
// kind reaches in-process Hooks; JournalHook writes all but push and
// merge, the per-window data-plane events.
type Event struct {
	Kind    EventKind
	Worker  int
	Samples int64
	Seq     uint64
	Elapsed time.Duration
}

// Hook observes collector events. Events for one worker's pushes are
// delivered in order (under that worker's shard lock), but pushes from
// different workers run concurrently, so a Hook must be safe for
// concurrent use. Keep it fast and do not call back into the Collector.
type Hook func(Event)

// MultiHook fans one event out to several hooks (nils are skipped), so
// a caller can journal events and still observe them itself.
func MultiHook(hooks ...Hook) Hook {
	live := hooks[:0]
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	fixed := append([]Hook(nil), live...)
	return func(e Event) {
		for _, h := range fixed {
			h(e)
		}
	}
}

// JournalHook adapts collector events into run-journal records. The
// journal tells the run's story, not its data traffic: push and merge
// fire once per window, so they stay counters (pushes_total,
// merges_total) and in-process Hook deliveries, and are never written
// as lines — at strict exchange they would be two lines per
// realization. Every other kind is journaled. The journal's Record
// never blocks (events are buffered to a background writer), so this
// hook is safe under the collector lock.
func JournalHook(j *obs.Journal) Hook {
	if j == nil {
		return nil
	}
	return func(e Event) {
		if e.Kind == EventPush || e.Kind == EventMerge {
			return
		}
		j.Record(obs.Event{
			Kind:    e.Kind.String(),
			Worker:  e.Worker,
			Samples: e.Samples,
			Seq:     e.Seq,
			Elapsed: e.Elapsed,
		})
	}
}
