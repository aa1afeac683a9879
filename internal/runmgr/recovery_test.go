package runmgr

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parmonc/internal/store"
	"parmonc/internal/workload"
)

func walRec(seq uint64, kind, run string) store.WALRecord {
	return store.WALRecord{Seq: seq, Epoch: 1, Kind: kind, Run: run}
}

// TestReplayWAL drives the pure transition-fold over the edge cases a
// real WAL accumulates: at-least-once duplicates, records that look
// out of order behind a torn tail, and cancel-vs-done races where the
// crash landed between two terminal writes.
func TestReplayWAL(t *testing.T) {
	cases := []struct {
		name  string
		recs  []store.WALRecord
		want  map[string]State
		stats replayStats
	}{
		{
			name: "normal lifecycle",
			recs: []store.WALRecord{
				walRec(1, walSubmit, "r0001"), walRec(2, walAdmit, "r0001"),
				walRec(3, walStart, "r0001"), walRec(4, walDone, "r0001"),
			},
			want: map[string]State{"r0001": StateDone},
		},
		{
			name: "duplicate transitions are idempotent",
			recs: []store.WALRecord{
				walRec(1, walSubmit, "r0001"), walRec(2, walSubmit, "r0001"),
				walRec(3, walAdmit, "r0001"), walRec(4, walAdmit, "r0001"),
			},
			want:  map[string]State{"r0001": StateAdmitted},
			stats: replayStats{Duplicates: 2},
		},
		{
			name: "backwards transition ignored",
			recs: []store.WALRecord{
				walRec(1, walSubmit, "r0001"), walRec(2, walStart, "r0001"),
				walRec(3, walAdmit, "r0001"), // stale record after a torn tail rewrite
			},
			want:  map[string]State{"r0001": StateRunning},
			stats: replayStats{OutOfOrder: 1},
		},
		{
			name: "cancel-vs-done race: first terminal wins",
			recs: []store.WALRecord{
				walRec(1, walSubmit, "r0001"), walRec(2, walCanceled, "r0001"),
				walRec(3, walDone, "r0001"),
			},
			want:  map[string]State{"r0001": StateCanceled},
			stats: replayStats{Conflicts: 1},
		},
		{
			name: "done-vs-cancel race the other way",
			recs: []store.WALRecord{
				walRec(1, walDone, "r0001"), walRec(2, walCanceled, "r0001"),
			},
			want:  map[string]State{"r0001": StateDone},
			stats: replayStats{Conflicts: 1},
		},
		{
			name: "non-transition kinds and runless records skipped",
			recs: []store.WALRecord{
				{Seq: 1, Epoch: 1, Kind: store.WALKindEpoch},
				walRec(2, walSubmit, "r0001"),
				{Seq: 3, Epoch: 1, Kind: walRecover},
				{Seq: 4, Epoch: 1, Kind: walSuspend, Run: "r0001"},
				{Seq: 5, Epoch: 1, Kind: walDone}, // no run ID: dropped
				{Seq: 6, Epoch: 1, Kind: store.WALKindShutdown},
			},
			want: map[string]State{"r0001": StateQueued},
		},
		{
			name: "independent runs fold independently",
			recs: []store.WALRecord{
				walRec(1, walSubmit, "r0001"), walRec(2, walSubmit, "r0002"),
				walRec(3, walAdmit, "r0001"), walRec(4, walCanceled, "r0002"),
			},
			want: map[string]State{"r0001": StateAdmitted, "r0002": StateCanceled},
		},
		{
			name: "empty log",
			recs: nil,
			want: map[string]State{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, stats := replayWAL(tc.recs)
			if len(got) != len(tc.want) {
				t.Fatalf("states = %v, want %v", got, tc.want)
			}
			for id, st := range tc.want {
				if got[id] != st {
					t.Errorf("run %s folded to %s, want %s", id, got[id], st)
				}
			}
			if stats != tc.stats {
				t.Errorf("stats = %+v, want %+v", stats, tc.stats)
			}
		})
	}
}

func TestFreshStartEmptyDataRoot(t *testing.T) {
	root := t.TempDir()
	m := newManager(t, Config{DataRoot: root, AverPeriod: 20 * time.Millisecond})
	info := m.Recovery()
	if info.Epoch != 1 {
		t.Errorf("first incarnation epoch = %d, want 1", info.Epoch)
	}
	if info.CleanShutdown || info.WALRecords != 0 || info.Terminal != 0 || info.Requeued != 0 {
		t.Errorf("fresh start recovered state: %+v", info)
	}
	if _, err := os.Stat(filepath.Join(root, store.WALFile)); err != nil {
		t.Errorf("fresh start did not create the service WAL: %v", err)
	}
}

// waitSamples polls until the run has merged at least n samples.
func waitSamples(t *testing.T, m *Manager, id string, n int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.N >= n {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("run %s went %s at N=%d before reaching %d", id, st.State, st.N, n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck at N=%d after %v, want %d", id, st.N, timeout, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRecoveryImage polls until a periodic save has written a run image
// holding merged samples (the image written at admission holds none).
func waitRecoveryImage(t *testing.T, root, id string, timeout time.Duration) {
	t.Helper()
	d, err := store.Open(filepath.Join(root, id))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for {
		if img, err := d.LoadImage(); err == nil && img.Fold.N > img.Base.N {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no run image with merged samples at %s after %v", d.CheckpointPath(), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGracefulShutdownResumeNoReplay is the drained-shutdown
// regression: SIGTERM-style Shutdown leaves a clean WAL, so the next
// incarnation replays nothing, requeues the suspended run in place,
// restores its samples, and finishes it bit-identical to a run that
// was never interrupted.
func TestGracefulShutdownResumeNoReplay(t *testing.T) {
	sub := Submission{
		Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 400_000,
		SeqNum: 51, PassEvery: 100, LeaseSize: 20_000,
	}
	want := runIsolated(t, sub)

	root := t.TempDir()
	cfg := Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}
	m1 := newManager(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	m1.StartLocalWorkers(ctx1, 2, FleetWorkerConfig{})
	st, err := m1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitSamples(t, m1, st.ID, 10_000, 60*time.Second)
	if err := m1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	cancel1()

	m2 := newManager(t, cfg)
	info := m2.Recovery()
	if !info.CleanShutdown {
		t.Error("drained shutdown not recognized as clean")
	}
	if info.Replayed != 0 {
		t.Errorf("clean shutdown replayed %d runs, want 0", info.Replayed)
	}
	if info.Requeued != 1 || info.Resumed != 1 {
		t.Errorf("requeued/resumed = %d/%d, want 1/1", info.Requeued, info.Resumed)
	}
	if info.SamplesRestored <= 0 {
		t.Errorf("SamplesRestored = %d, want > 0", info.SamplesRestored)
	}
	if info.Epoch != 2 {
		t.Errorf("second incarnation epoch = %d, want 2", info.Epoch)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2.StartLocalWorkers(ctx2, 2, FleetWorkerConfig{})
	waitState(t, m2, st.ID, StateDone, 120*time.Second)
	got, err := m2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "graceful-restart", got, want)
}

// TestKillRecoveryBitIdentical: the deterministic core of the tentpole
// — kill the service mid-flight (no drain, no final save), restart on
// the same data root, and the resumed run must still finish with a
// report bit-identical to uninterrupted execution, because recovery
// restores the per-shard accumulators and re-derives the outstanding
// lease remainders from the merged-prefix ledger.
func TestKillRecoveryBitIdentical(t *testing.T) {
	// Sized so the run is still going when its first recovery image
	// lands and the kill comes.
	sub := Submission{
		Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 2_000_000,
		SeqNum: 52, PassEvery: 100, LeaseSize: 100_000,
	}
	want := runIsolated(t, sub)

	root := t.TempDir()
	cfg := Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}
	m1 := newManager(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	m1.StartLocalWorkers(ctx1, 2, FleetWorkerConfig{})
	st, err := m1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitSamples(t, m1, st.ID, 10_000, 60*time.Second)
	waitRecoveryImage(t, root, st.ID, 30*time.Second)
	m1.kill()
	cancel1()

	m2 := newManager(t, cfg)
	info := m2.Recovery()
	if info.CleanShutdown {
		t.Error("a kill must not read as a clean shutdown")
	}
	if info.Requeued != 1 {
		t.Errorf("requeued = %d, want 1", info.Requeued)
	}
	if info.Resumed != 1 || info.SamplesRestored <= 0 {
		t.Errorf("resumed/samples = %d/%d, want 1/>0", info.Resumed, info.SamplesRestored)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2.StartLocalWorkers(ctx2, 2, FleetWorkerConfig{})
	waitState(t, m2, st.ID, StateDone, 120*time.Second)
	got, err := m2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "kill-restart", got, want)
}

// TestOldCheckpointRecomputesFromScratch: an unfinished run whose
// checkpoint.dat predates the run image (a data root written by an
// older version) is not restored and not treated as corrupt: it
// requeues, recomputes from its start, and still finishes bit-identical
// to an uninterrupted run.
func TestOldCheckpointRecomputesFromScratch(t *testing.T) {
	sub := Submission{
		Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 2_000_000,
		SeqNum: 54, PassEvery: 100, LeaseSize: 100_000,
	}
	want := runIsolated(t, sub)
	old, err := os.ReadFile(filepath.Join("..", "store", "testdata", "checkpoint-frame-v1.dat"))
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	cfg := Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}
	m1 := newManager(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	g := m1.StartLocalWorkers(ctx1, 2, FleetWorkerConfig{})
	st, err := m1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitRecoveryImage(t, root, st.ID, 30*time.Second)
	m1.kill()
	cancel1()
	g.Wait() // no push, and so no push-triggered save, is still in flight
	ckpt := filepath.Join(root, st.ID, store.DataDir, store.CheckpointFile)
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, cfg)
	if info := m2.Recovery(); info.Requeued != 1 || info.Resumed != 0 || info.SamplesRestored != 0 {
		t.Errorf("requeued/resumed/samples = %d/%d/%d, want 1/0/0", info.Requeued, info.Resumed, info.SamplesRestored)
	}
	if _, err := os.Stat(ckpt + store.QuarantineSuffix); !os.IsNotExist(err) {
		t.Errorf("old-format checkpoint was quarantined (stat err %v)", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2.StartLocalWorkers(ctx2, 2, FleetWorkerConfig{})
	waitState(t, m2, st.ID, StateDone, 120*time.Second)
	got, err := m2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "old-checkpoint-restart", got, want)
}

// TestTerminalRunsListedAfterRestart: done runs come back read-only
// from their manifests — same state, and a report that is bitwise the
// one the run finished with. Their experiment subsequences stay
// reserved across the restart.
func TestTerminalRunsListedAfterRestart(t *testing.T) {
	sub := Submission{
		Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 5_000,
		SeqNum: 53, PassEvery: 100, LeaseSize: 1_000,
	}
	root := t.TempDir()
	cfg := Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}
	m1 := newManager(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m1.StartLocalWorkers(ctx, 1, FleetWorkerConfig{})
	st, err := m1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, StateDone, 60*time.Second)
	want, err := m1.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, cfg)
	if info := m2.Recovery(); info.Terminal != 1 || info.Requeued != 0 {
		t.Fatalf("terminal/requeued = %d/%d, want 1/0", info.Terminal, info.Requeued)
	}
	rst, err := m2.Run(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rst.State != StateDone {
		t.Fatalf("restored state = %s, want done", rst.State)
	}
	got, err := m2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "terminal-restart", got, want)

	if _, err := m2.Submit(sub); err == nil {
		t.Fatal("restart forgot the terminal run's experiment subsequence")
	}
}

// TestRecoverPolicyManifest: strict refuses to start over a corrupt
// manifest; discard quarantines it and continues without the run.
func TestRecoverPolicyManifest(t *testing.T) {
	root := t.TempDir()
	runDir := filepath.Join(root, "r0001")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(runDir, store.ManifestFile)
	writeGarbage := func() {
		if err := os.WriteFile(mpath, []byte("not a manifest"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeGarbage()
	if _, err := New(Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}); err == nil {
		t.Fatal("strict recovery started over a corrupt manifest")
	}

	writeGarbage()
	m := newManager(t, Config{
		DataRoot: root, AverPeriod: 20 * time.Millisecond, Recover: RecoverDiscard,
	})
	info := m.Recovery()
	if info.CorruptManifests != 1 {
		t.Errorf("CorruptManifests = %d, want 1", info.CorruptManifests)
	}
	if info.Terminal+info.Requeued != 0 {
		t.Errorf("discard policy resurrected the corrupt run: %+v", info)
	}
	if _, err := os.Stat(mpath + store.QuarantineSuffix); err != nil {
		t.Errorf("corrupt manifest not quarantined: %v", err)
	}
}

// TestRecoverPolicyWAL: same policy split for the service WAL, and
// epochs never move backwards even when the WAL is lost — the highest
// manifest epoch seeds the new one.
func TestRecoverPolicyWAL(t *testing.T) {
	root := t.TempDir()
	wpath := filepath.Join(root, store.WALFile)
	writeGarbage := func() {
		if err := os.WriteFile(wpath, []byte("not a wal\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeGarbage()
	if _, err := New(Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}); err == nil {
		t.Fatal("strict recovery started over a corrupt WAL")
	}

	writeGarbage()
	m := newManager(t, Config{
		DataRoot: root, AverPeriod: 20 * time.Millisecond, Recover: RecoverDiscard,
	})
	info := m.Recovery()
	if !info.CorruptWAL {
		t.Error("CorruptWAL not reported")
	}
	if info.Epoch != 1 {
		t.Errorf("epoch after WAL loss = %d, want 1 (no manifests to seed from)", info.Epoch)
	}
}

func TestServiceEpochMonotonic(t *testing.T) {
	root := t.TempDir()
	cfg := Config{DataRoot: root, AverPeriod: 20 * time.Millisecond}
	for want := uint64(1); want <= 3; want++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Recovery().Epoch; got != want {
			t.Fatalf("incarnation %d has epoch %d", want, got)
		}
		m.kill()
	}
}

func TestUnknownRecoverPolicyRejected(t *testing.T) {
	_, err := New(Config{DataRoot: t.TempDir(), Recover: RecoverPolicy("yolo")})
	if err == nil {
		t.Fatal("unknown -recover policy accepted")
	}
}

// TestRecoveryGate503: while startup recovery is replaying, the
// control API answers 503 with Retry-After instead of serving from a
// half-rebuilt registry.
func TestRecoveryGate503(t *testing.T) {
	m := newManager(t, testConfig(t))
	h := m.Handler()

	m.recovering.Store(true)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status during recovery = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	m.recovering.Store(false)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status after recovery = %d, want 200", rec.Code)
	}
}

// TestSubmitBodyLimit: a run submission is a small JSON object; a
// multi-megabyte body is rejected with 413 before it is buffered.
func TestSubmitBodyLimit(t *testing.T) {
	m := newManager(t, testConfig(t))
	h := m.Handler()
	huge := `{"scenario":{"workload":"pi"},"junk":"` + strings.Repeat("a", 2<<20) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", strings.NewReader(huge)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission = %d, want 413", rec.Code)
	}
}
