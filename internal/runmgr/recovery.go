package runmgr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Service recovery: on startup the manager rehydrates its registry
// from the durable state the previous incarnation left at DataRoot —
// one manifest.json per run (what the run is, where its lifecycle
// stands) plus the append-only service WAL (the transition log, which
// may run ahead of the manifests by the one transition that was in
// flight when the process died). Terminal runs are listed read-only
// from their manifests; every other run re-enters the admission queue
// in original submission order, and on admission re-opens its
// collector from the shards of its run image so its report stays
// bit-identical to an uninterrupted run. The whole recovery is fenced
// by the service epoch: grants minted by a previous incarnation carry
// its epoch in their lease IDs, so a zombie push can never double-merge.

// RecoverPolicy selects how recovery treats corrupt durable state.
type RecoverPolicy string

const (
	// RecoverStrict (the default) refuses to start on a corrupt WAL or
	// manifest — the operator inspects the quarantined file and decides.
	RecoverStrict RecoverPolicy = "strict"
	// RecoverDiscard quarantines corrupt files and continues with what
	// remains: a run whose manifest is lost disappears from the
	// registry (its data tree stays on disk); a run whose recovery
	// image is lost recomputes from scratch (correct, just wasteful).
	RecoverDiscard RecoverPolicy = "discard"
)

// RecoveryInfo summarizes one startup recovery — exposed on /statusz
// and asserted by the regression tests (a drained shutdown must show
// CleanShutdown with nothing replayed).
type RecoveryInfo struct {
	Epoch         uint64 `json:"epoch"`          // this incarnation's service epoch
	CleanShutdown bool   `json:"clean_shutdown"` // previous incarnation drained and closed
	WALRecords    int    `json:"wal_records"`    // records replayed from the WAL
	WALTornTail   bool   `json:"wal_torn_tail"`  // final record torn mid-append (dropped)
	CorruptWAL    bool   `json:"corrupt_wal"`    // WAL quarantined (discard policy)

	Terminal int `json:"terminal"` // runs listed read-only from terminal manifests
	Requeued int `json:"requeued"` // non-terminal runs re-entered into the queue
	Resumed  int `json:"resumed"`  // of those, runs whose image holds merged samples to restore
	Replayed int `json:"replayed"` // runs whose manifest lagged the WAL (reconciled)

	CorruptManifests int   `json:"corrupt_manifests"` // manifests quarantined (discard policy)
	SamplesRestored  int64 `json:"samples_restored"`  // sample volume carried across the restart
}

// runManifest is the durable JSON body of DataRoot/<runID>/manifest.json.
type runManifest struct {
	ID          string     `json:"id"`
	Seq         int        `json:"seq"`
	State       State      `json:"state"`
	Error       string     `json:"error,omitempty"`
	Workload    string     `json:"workload"`
	Fingerprint string     `json:"fingerprint"`
	Scenario    string     `json:"scenario"`
	Nrow        int        `json:"nrow"`
	Ncol        int        `json:"ncol"`
	Submission  Submission `json:"submission"`
	Epoch       uint64     `json:"epoch"` // service epoch that last wrote this manifest

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`

	// Report is present on done (and saved-partial canceled/failed)
	// runs: the final statistics, exactly as GET /runs/{id}/report
	// serves them. JSON float64 round-trips are exact (shortest
	// representation), so a report listed from a manifest is bitwise
	// the report the run finished with.
	Report *ReportPayload `json:"report,omitempty"`
}

// manifestLocked builds r's manifest body. Caller holds m.mu.
func (m *Manager) manifestLocked(r *run) runManifest {
	mf := runManifest{
		ID:          r.id,
		Seq:         r.seq,
		State:       r.state,
		Error:       r.errMsg,
		Workload:    r.workloadN,
		Fingerprint: r.fingerprint,
		Scenario:    r.scenario,
		Nrow:        r.nrow,
		Ncol:        r.ncol,
		Submission:  r.sub,
		Epoch:       m.epoch,
		SubmittedAt: r.submitted,
		StartedAt:   r.started,
		FinishedAt:  r.finished,
	}
	if r.hasReport {
		rep := reportPayload(r.id, r.state, r.workloadN, r.fingerprint, r.rep)
		mf.Report = &rep
	}
	return mf
}

// runFromManifest rebuilds the in-memory run record.
func runFromManifest(mf runManifest) *run {
	r := &run{
		id:          mf.ID,
		seq:         mf.Seq,
		sub:         mf.Submission,
		workloadN:   mf.Workload,
		fingerprint: mf.Fingerprint,
		scenario:    mf.Scenario,
		nrow:        mf.Nrow,
		ncol:        mf.Ncol,
		state:       mf.State,
		errMsg:      mf.Error,
		outstanding: map[uint64]*grant{},
		granted:     map[uint64]collect.Lease{},
		incompat:    map[int]bool{},
		submitted:   mf.SubmittedAt,
		started:     mf.StartedAt,
		finished:    mf.FinishedAt,
	}
	if mf.Report != nil {
		r.rep = payloadToReport(*mf.Report)
		r.hasReport = true
	}
	return r
}

// payloadToReport inverts reportPayload. The float64s round-trip
// bitwise (ReportPayload marshals shortest-representation JSON and
// JSONFloat handles the IEEE specials), so a report that crossed a
// manifest compares bit-identical to the original.
func payloadToReport(p ReportPayload) stat.Report {
	floats := func(xs []JSONFloat) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		return out
	}
	return stat.Report{
		Nrow:        p.Nrow,
		Ncol:        p.Ncol,
		N:           p.N,
		Mean:        floats(p.Mean),
		Var:         floats(p.Var),
		AbsErr:      floats(p.AbsErr),
		RelErr:      floats(p.RelErr),
		MaxAbsErr:   float64(p.MaxAbsErr),
		MaxRelErr:   float64(p.MaxRelErr),
		MaxVar:      float64(p.MaxVar),
		Gamma:       p.Gamma,
		MeanSimTime: time.Duration(p.MeanSimTime),
	}
}

// WAL lifecycle kinds the manager appends (beyond the store's own
// epoch/shutdown records). The record's Run field carries the run ID.
const (
	walSubmit   = "submit"
	walAdmit    = "admit"
	walStart    = "start"
	walDone     = "done"
	walFailed   = "failed"
	walCanceled = "canceled"
	walRecover  = "recover"
	walSuspend  = "suspend"
)

// walKindState maps a WAL transition kind onto the lifecycle state it
// establishes; ok is false for non-transition kinds (epoch, shutdown,
// recover, suspend).
func walKindState(kind string) (State, bool) {
	switch kind {
	case walSubmit:
		return StateQueued, true
	case walAdmit:
		return StateAdmitted, true
	case walStart:
		return StateRunning, true
	case walDone:
		return StateDone, true
	case walFailed:
		return StateFailed, true
	case walCanceled:
		return StateCanceled, true
	}
	return "", false
}

func stateRank(s State) int {
	switch s {
	case StateQueued:
		return 0
	case StateAdmitted:
		return 1
	case StateRunning:
		return 2
	}
	return 3 // terminal
}

// replayStats counts the anomalies replay tolerated.
type replayStats struct {
	Duplicates int // the same transition recorded twice (at-least-once writers)
	Conflicts  int // two different terminal states raced across a crash: first wins
	OutOfOrder int // a transition that would move the lifecycle backwards: ignored
}

// replayWAL folds the transition records into each run's final
// lifecycle state. It is a pure function so the edge cases — duplicate
// transitions, out-of-order records behind a torn tail, cancel-vs-done
// races recorded across a crash — are unit-testable without a disk.
//
// Rules: the lifecycle only moves forward (queued < admitted < running
// < terminal); a repeated state is a duplicate; once terminal, a
// different terminal state is a conflict and the first one recorded
// wins (the manager serialized the real transition under its lock, so
// the first record is the one that actually happened).
func replayWAL(recs []store.WALRecord) (map[string]State, replayStats) {
	states := map[string]State{}
	var stats replayStats
	for _, rec := range recs {
		next, ok := walKindState(rec.Kind)
		if !ok || rec.Run == "" {
			continue
		}
		cur, seen := states[rec.Run]
		if !seen {
			states[rec.Run] = next
			continue
		}
		switch {
		case next == cur:
			stats.Duplicates++
		case cur.Terminal() && next.Terminal():
			stats.Conflicts++
		case stateRank(next) < stateRank(cur):
			stats.OutOfOrder++
		default:
			states[rec.Run] = next
		}
	}
	return states, stats
}

// persistRunLocked appends the transition to the WAL and rewrites r's
// manifest — WAL first, so on a crash between the two writes the WAL
// is ahead of the manifest, never behind. Persistence failures are
// journaled, not fatal: the in-memory service keeps serving (exactly
// what the pre-durability manager did), it just recovers less after a
// crash. Caller holds m.mu.
func (m *Manager) persistRunLocked(r *run, kind string) {
	if err := m.persistRunErrLocked(r, kind); err != nil {
		m.jevent("persist_error", map[string]any{"run": r.id, "kind": kind, "err": err.Error()})
	}
}

// persistRunErrLocked is persistRunLocked surfacing the error — the
// submit path rejects a submission it could not make durable.
func (m *Manager) persistRunErrLocked(r *run, kind string) error {
	if m.wal != nil && kind != "" {
		if err := m.wal.Append(kind, r.id, m.now(), nil); err != nil {
			return err
		}
	}
	dir := filepath.Join(m.cfg.DataRoot, r.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return store.SaveManifest(filepath.Join(dir, store.ManifestFile), m.manifestLocked(r))
}

// remainingLeases derives the work a restored run still owes: the
// original lease partition minus each processor's merged prefix from
// the run image. Incomplete remainders go to the front of the
// queue (the reissue convention), untouched leases follow in partition
// order — the same windows, in the same per-processor positions, as an
// uninterrupted run would compute.
func remainingLeases(partition []collect.Lease, rs *store.Image) (pending []collect.Lease, completed int64) {
	merged := map[uint64]uint64{} // processor → absolute end of its merged prefix
	for _, sh := range rs.Shards {
		for _, le := range sh.Leases {
			if end := le.Start + uint64(le.Done); end > merged[le.Proc] {
				merged[le.Proc] = end
			}
		}
	}
	var rem, untouched []collect.Lease
	for _, pl := range partition {
		end := pl.Start + uint64(pl.Count)
		mp := merged[pl.Proc]
		switch {
		case mp >= end:
			completed++
		case mp <= pl.Start:
			untouched = append(untouched, pl)
		default:
			rem = append(rem, collect.Lease{Proc: pl.Proc, Start: mp, Count: int64(end - mp)})
		}
	}
	return append(rem, untouched...), completed
}

// recover rehydrates the registry from DataRoot. Called once from New,
// before anything else can touch the manager, so it runs lock-free.
func (m *Manager) recover() error {
	root := m.cfg.DataRoot
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	info := &m.recInfo

	// Pass 1: the manifests. Collected before the WAL opens so the new
	// service epoch also clears the highest epoch any manifest has seen
	// — even if the WAL itself was lost, epochs never move backwards.
	var manifests []runManifest
	images := map[string]*store.Image{}
	var maxEpoch uint64
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		mpath := filepath.Join(root, e.Name(), store.ManifestFile)
		var mf runManifest
		if lerr := store.LoadManifest(mpath, &mf); lerr != nil {
			if os.IsNotExist(lerr) {
				continue // not a run directory
			}
			if errors.Is(lerr, store.ErrCorrupt) {
				info.CorruptManifests++
				if m.countCorrupt(mpath, lerr); m.cfg.Recover != RecoverDiscard {
					return fmt.Errorf("runmgr: recovery (use -recover=discard to quarantine and continue): %w", lerr)
				}
				continue
			}
			return lerr
		}
		if mf.ID != e.Name() {
			info.CorruptManifests++
			if m.countCorrupt(mpath, fmt.Errorf("manifest claims run %q", mf.ID)); m.cfg.Recover != RecoverDiscard {
				return fmt.Errorf("runmgr: recovery: manifest %s claims run %q (use -recover=discard to skip it)", mpath, mf.ID)
			}
			continue
		}
		if mf.Epoch > maxEpoch {
			maxEpoch = mf.Epoch
		}
		manifests = append(manifests, mf)
	}

	// Pass 2: the WAL — it names this incarnation's epoch and may know
	// transitions the manifests missed.
	walPath := filepath.Join(root, store.WALFile)
	wal, replay, err := store.OpenWAL(walPath, maxEpoch, m.now())
	if err != nil {
		if !errors.Is(err, store.ErrCorrupt) || m.cfg.Recover != RecoverDiscard {
			return fmt.Errorf("runmgr: service WAL (use -recover=discard to quarantine and continue): %w", err)
		}
		info.CorruptWAL = true
		m.countCorrupt(walPath, err)
		wal, replay, err = store.OpenWAL(walPath, maxEpoch, m.now())
		if err != nil {
			return fmt.Errorf("runmgr: service WAL: %w", err)
		}
	}
	m.wal = wal
	m.epoch = wal.Epoch()
	info.Epoch = m.epoch
	info.WALRecords = len(replay.Records)
	info.WALTornTail = replay.Torn
	info.CleanShutdown = replay.CleanShutdown()
	walStates, _ := replayWAL(replay.Records)

	// Pass 3: rebuild the registry in submission order.
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Seq < manifests[j].Seq })
	var wasActive, wasQueued []*run
	for _, mf := range manifests {
		r := runFromManifest(mf)
		if ws, ok := walStates[r.id]; ok && ws != mf.State {
			info.Replayed++
			if ws.Terminal() && !mf.State.Terminal() && ws != StateDone {
				// The WAL committed a cancel/fail whose manifest write
				// the crash swallowed. Honor it — finishing the run
				// instead would resurrect work the user ended.
				r.state = ws
				if r.errMsg == "" {
					r.errMsg = "recovered: service stopped while finishing this run as " + string(ws)
				}
				if r.finished.IsZero() {
					r.finished = m.now()
				}
			}
			// A WAL "done" (or a mere admit/start) ahead of the manifest
			// needs no forcing: the run re-admits below, its restored
			// collector already holds the merged samples, and the usual
			// completion check finishes it with bit-identical results.
		}
		m.runs[r.id] = r
		m.order = append(m.order, r)
		if r.seq > m.nextRunID {
			m.nextRunID = r.seq
		}
		if r.sub.SeqNum != 0 {
			m.usedSeq[r.sub.SeqNum] = r.id
		}
		m.registerRunGauges(r.id)
		if r.state.Terminal() {
			info.Terminal++
			if r.state != mf.State {
				m.persistRunLocked(r, string(r.state))
			}
			continue
		}
		// Pre-load the run image so a corrupt one surfaces now,
		// under the policy, rather than at whatever later moment the
		// admission queue reaches this run.
		d, derr := store.Open(filepath.Join(root, r.id))
		if derr != nil {
			return derr
		}
		img, lerr := d.LoadImage()
		switch {
		case lerr == nil && img.Fold.N > img.Base.N:
			images[r.id] = &img
			info.Resumed++
			info.SamplesRestored += img.Fold.N - img.Base.N
		case lerr == nil, os.IsNotExist(lerr), errors.Is(lerr, store.ErrOldCheckpoint):
			// Nothing merged yet (queued, or crashed before the first
			// save merged anything), or a checkpoint from before the
			// image format: the run recomputes from its start, which is
			// bit-identical too.
		case errors.Is(lerr, store.ErrCorrupt):
			m.countCorrupt(d.CheckpointPath(), lerr)
			if m.cfg.Recover != RecoverDiscard {
				return fmt.Errorf("runmgr: run image of %s (use -recover=discard to quarantine and recompute): %w", r.id, lerr)
			}
		default:
			return lerr
		}
		// Previously-active runs re-admit ahead of the queued ones;
		// within each class original submission order holds (seq order,
		// already sorted).
		active := r.state == StateAdmitted || r.state == StateRunning
		r.state = StateQueued
		if active {
			wasActive = append(wasActive, r)
		} else {
			wasQueued = append(wasQueued, r)
		}
		info.Requeued++
	}
	m.queue = append(wasActive, wasQueued...)
	for _, r := range m.queue {
		r.restoreImg = images[r.id]
		m.persistRunLocked(r, "")
	}
	m.admitLocked()
	_ = m.wal.Append(walRecover, "", m.now(), info)
	if len(manifests) > 0 || info.WALRecords > 0 {
		m.jevent("service_recover", map[string]any{
			"epoch": m.epoch, "terminal": info.Terminal, "requeued": info.Requeued,
			"resumed": info.Resumed, "replayed": info.Replayed, "clean_shutdown": info.CleanShutdown,
			"samples_restored": info.SamplesRestored,
		})
	}
	return nil
}

// countCorrupt records one quarantined file in metrics and the journal.
func (m *Manager) countCorrupt(path string, err error) {
	if m.mRecCorrupt != nil {
		m.mRecCorrupt.Inc()
	}
	m.jevent("recover_corrupt", map[string]any{"file": path, "err": err.Error()})
}

// Recovery returns the startup-recovery summary of this incarnation.
func (m *Manager) Recovery() RecoveryInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recInfo
}
