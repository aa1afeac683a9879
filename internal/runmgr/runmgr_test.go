package runmgr

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/store"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		DataRoot:   t.TempDir(),
		AverPeriod: 20 * time.Millisecond,
	}
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func piSubmission(maxsv int64, seq uint64) Submission {
	return Submission{
		Scenario:   workload.Spec{Workload: "pi"},
		MaxSamples: maxsv,
		SeqNum:     seq,
		PassEvery:  100,
		LeaseSize:  1000,
	}
}

// waitState polls until the run reaches a terminal state or the state
// in want, failing the test on timeout.
func waitState(t *testing.T, m *Manager, id string, want State, timeout time.Duration) RunStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("run %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s after %v, want %s", id, st.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, testConfig(t))
	cases := []struct {
		name string
		sub  Submission
		frag string
	}{
		{"no workload", Submission{MaxSamples: 100}, "no workload name"},
		{"unknown workload", Submission{Scenario: workload.Spec{Workload: "nosuch"}, MaxSamples: 100}, "nosuch"},
		{"no target", Submission{Scenario: workload.Spec{Workload: "pi"}}, "positive realization target"},
		{"bad param", Submission{Scenario: workload.Spec{Workload: "pi", Params: workload.Values{"bogus": 1}}, MaxSamples: 100}, "bogus"},
		{"negative pass-every", Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 100, PassEvery: -1}, "pass-every"},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.sub); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.frag)
		}
	}
}

func TestSubmitBudget(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRealizations = 5000
	m := newManager(t, cfg)
	if _, err := m.Submit(piSubmission(5001, 1)); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget submit: err = %v", err)
	}
	if _, err := m.Submit(piSubmission(5000, 2)); err != nil {
		t.Fatalf("at-budget submit: %v", err)
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxActive = 1
	cfg.MaxQueued = 2
	m := newManager(t, cfg)

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(piSubmission(2000, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := m.Submit(piSubmission(2000, 9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: err = %v, want ErrQueueFull", err)
	}
	if st, _ := m.Run(ids[0]); st.State != StateAdmitted {
		t.Fatalf("first run is %s, want admitted", st.State)
	}
	for _, id := range ids[1:] {
		if st, _ := m.Run(id); st.State != StateQueued {
			t.Fatalf("run %s is %s, want queued", id, st.State)
		}
	}

	// Canceling the active run frees its slot to the head of the queue,
	// and the freed queue slot accepts a new submission.
	if _, err := m.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Run(ids[1]); st.State != StateAdmitted {
		t.Fatalf("after cancel, second run is %s, want admitted", st.State)
	}
	if _, err := m.Submit(piSubmission(2000, 9)); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
}

func TestSeqNumAssignment(t *testing.T) {
	m := newManager(t, testConfig(t))
	a, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if a.SeqNum == b.SeqNum {
		t.Fatalf("auto-assigned subsequences collide: %d", a.SeqNum)
	}
	// An explicit number already in use is rejected: two hosted runs
	// must never share base random numbers.
	if _, err := m.Submit(piSubmission(1000, a.SeqNum)); err == nil {
		t.Fatalf("duplicate explicit seqnum %d accepted", a.SeqNum)
	}
	c, err := m.Submit(piSubmission(1000, 77))
	if err != nil {
		t.Fatal(err)
	}
	if c.SeqNum != 77 {
		t.Fatalf("explicit seqnum: got %d, want 77", c.SeqNum)
	}
	// Auto-assignment skips explicitly taken numbers.
	d, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, prev := range []uint64{a.SeqNum, b.SeqNum, 77} {
		if d.SeqNum == prev {
			t.Fatalf("auto seqnum %d collides with used %d", d.SeqNum, prev)
		}
	}
}

// TestFairSharePull drives the scheduler directly through the fleet
// protocol: with two active runs, consecutive grants alternate between
// them (grant to the run with the fewest outstanding leases).
func TestFairSharePull(t *testing.T) {
	m := newManager(t, testConfig(t))
	a, err := m.Submit(piSubmission(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(piSubmission(4000, 2))
	if err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{Hostname: "test"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 4; i++ {
		pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Granted {
			t.Fatalf("pull %d: nothing granted", i)
		}
		got = append(got, pr.Task.RunID)
	}
	want := []string{a.ID, b.ID, a.ID, b.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestProtocolNack: a worker that cannot serve a run is excluded from
// it and the lease window is regranted intact to another worker.
func TestProtocolNack(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := m.attach(AttachArgs{Hostname: "w1"})
	w2, _ := m.attach(AttachArgs{Hostname: "w2"})

	pr, err := m.pullTask(context.Background(), PullArgs{Worker: w1.Worker, Epoch: w1.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: granted=%v err=%v", pr.Granted, err)
	}
	first := pr.Task.Lease
	if err := m.nackTask(NackArgs{Worker: w1.Worker, Epoch: w1.Epoch, RunID: st.ID, LeaseID: first.ID, Reason: "not linked here"}); err != nil {
		t.Fatal(err)
	}
	// The nacking worker never sees this run again.
	if pr, _ := m.pullTask(context.Background(), PullArgs{Worker: w1.Worker, Epoch: w1.Epoch}); pr.Granted {
		t.Fatalf("nacking worker was granted %s again", pr.Task.RunID)
	}
	// Another worker gets the same window back under a fresh grant ID.
	pr2, err := m.pullTask(context.Background(), PullArgs{Worker: w2.Worker, Epoch: w2.Epoch})
	if err != nil || !pr2.Granted {
		t.Fatalf("pull from w2: granted=%v err=%v", pr2.Granted, err)
	}
	re := pr2.Task.Lease
	if re.Proc != first.Proc || re.Start != first.Start || re.Count != first.Count {
		t.Fatalf("reissued lease %+v, want window of %+v", re, first)
	}
	if re.ID == first.ID {
		t.Fatalf("reissued lease kept grant ID %d", re.ID)
	}
	rs, _ := m.Run(st.ID)
	if rs.Leases.Nacks != 1 || rs.Leases.Reissued != 1 {
		t.Fatalf("counters = %+v, want 1 nack, 1 reissue", rs.Leases)
	}
}

// TestProtocolFail: a definitive realization failure fails the run and
// saves partial results.
func TestProtocolFail(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := m.attach(AttachArgs{Hostname: "w"})
	pr, _ := m.pullTask(context.Background(), PullArgs{Worker: w.Worker, Epoch: w.Epoch})
	if !pr.Granted {
		t.Fatal("no grant")
	}
	if err := m.failTask(FailArgs{Worker: w.Worker, Epoch: w.Epoch, RunID: st.ID, LeaseID: pr.Task.Lease.ID, Reason: "boom"}); err != nil {
		t.Fatal(err)
	}
	rs, _ := m.Run(st.ID)
	if rs.State != StateFailed || !strings.Contains(rs.Error, "boom") {
		t.Fatalf("run = %s (%q), want failed/boom", rs.State, rs.Error)
	}
	// The failed run's slot is free again.
	if next, err := m.Submit(piSubmission(1000, 2)); err != nil {
		t.Fatal(err)
	} else if s, _ := m.Run(next.ID); s.State != StateAdmitted {
		t.Fatalf("post-failure submit is %s, want admitted", s.State)
	}
}

// TestLocalWorkersRunToCompletion: the end-to-end happy path on the
// in-process transport, including the final report.
func TestLocalWorkersRunToCompletion(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, 3, FleetWorkerConfig{})

	st, err := m.Submit(piSubmission(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateDone, 30*time.Second)
	if final.N != 5000 {
		t.Fatalf("final N = %d, want 5000", final.N)
	}
	if final.Leases.Completed != int64(final.Leases.Total) || final.Leases.Outstanding != 0 || final.Leases.Pending != 0 {
		t.Fatalf("lease counters not drained: %+v", final.Leases)
	}
	rep, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 5000 || len(rep.Mean) != rep.Nrow*rep.Ncol {
		t.Fatalf("report N=%d dims=%dx%d len=%d", rep.N, rep.Nrow, rep.Ncol, len(rep.Mean))
	}
	// π/4 ≈ 0.785: the estimate should at least be in the ballpark.
	if rep.Mean[0] < 0.7 || rep.Mean[0] > 0.9 {
		t.Fatalf("pi estimate %g out of range", float64(rep.Mean[0]))
	}
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStopRuleCompletesEarly: a run with a relative-error target
// finishes as done before exhausting its realization budget.
func TestStopRuleCompletesEarly(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})

	st, err := m.Submit(Submission{
		Scenario:     workload.Spec{Workload: "pi"},
		MaxSamples:   2_000_000,
		SeqNum:       1,
		PassEvery:    100,
		LeaseSize:    10_000,
		TargetRelErr: 25, // generous: satisfied after ~a thousand samples
		MinSamples:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateDone, 60*time.Second)
	if final.N < 1000 {
		t.Fatalf("stopped below the sample floor: N = %d", final.N)
	}
	if final.N >= 2_000_000 {
		t.Fatalf("stop rule never fired: N = %d", final.N)
	}
}

// TestManagerCloseCancelsRuns: Close drives every live run terminal
// and stops local workers via the Stop flag.
func TestManagerCloseCancelsRuns(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxActive = 1
	m := newManager(t, cfg)
	a, err := m.Submit(piSubmission(1_000_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(piSubmission(1_000_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := m.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Fatalf("run %s is %s after Close, want canceled", id, st.State)
		}
	}
	if _, err := m.Submit(piSubmission(1000, 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v", err)
	}
}

// TestLeaseTimeoutReissue: a worker that pulls a lease and goes silent
// has it reissued to a live worker; the run still completes exactly.
func TestLeaseTimeoutReissue(t *testing.T) {
	cfg := testConfig(t)
	cfg.LeaseTimeout = 100 * time.Millisecond
	m := newManager(t, cfg)

	st, err := m.Submit(piSubmission(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A zombie worker takes a lease and never comes back.
	zw, _ := m.attach(AttachArgs{Hostname: "zombie"})
	pr, _ := m.pullTask(context.Background(), PullArgs{Worker: zw.Worker, Epoch: zw.Epoch})
	if !pr.Granted {
		t.Fatal("zombie got no grant")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})
	final := waitState(t, m, st.ID, StateDone, 30*time.Second)
	if final.N != 3000 {
		t.Fatalf("final N = %d, want 3000 (reissued window included exactly once)", final.N)
	}
	if final.Leases.Reissued == 0 {
		t.Fatal("no lease was reissued despite the zombie")
	}
}

// TestNegativeDurationsRejected: the negative durations that used to
// select the polling and per-window modes are configuration errors
// naming the field.
func TestNegativeDurationsRejected(t *testing.T) {
	if _, err := New(Config{DataRoot: t.TempDir(), PullWait: -time.Second}); err == nil ||
		!strings.Contains(err.Error(), "Config.PullWait") {
		t.Errorf("New with negative PullWait: err = %v, want mention of Config.PullWait", err)
	}
	m := newManager(t, testConfig(t))
	cases := []struct {
		name string
		cfg  FleetWorkerConfig
		frag string
	}{
		{"pull wait", FleetWorkerConfig{PullWait: -1}, "FleetWorkerConfig.PullWait"},
		{"flush interval", FleetWorkerConfig{FlushInterval: -time.Millisecond}, "FleetWorkerConfig.FlushInterval"},
	}
	for _, tc := range cases {
		if _, err := m.StartLocalWorkers(context.Background(), 1, tc.cfg).Wait(); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("local worker, %s: err = %v, want mention of %q", tc.name, err, tc.frag)
		}
		// The TCP entry point must refuse before it dials anything.
		if _, err := RunFleetWorker(context.Background(), "127.0.0.1:1", tc.cfg); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("TCP worker, %s: err = %v, want mention of %q", tc.name, err, tc.frag)
		}
	}
	if got := m.fleetCalls.Load(); got != 0 {
		t.Errorf("misconfigured workers made %d fleet calls, want 0", got)
	}
}

// TestUnfencedCallerFenced: there is no epoch-less opt-out of service
// fencing. A call that does not echo the epoch Attach returned is
// treated as any other stale caller — redirected to re-attach, fenced,
// or ignored — and changes nothing.
func TestUnfencedCallerFenced(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{Hostname: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker}); err != nil || !pr.Reattach || pr.Granted {
		t.Fatalf("epoch-less pull: %+v, %v; want a re-attach redirect", pr, err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("fenced pull: %+v, %v", pr, err)
	}
	task := pr.Task
	entry := PushEntry{RunID: task.RunID, LeaseID: task.Lease.ID, Done: task.PassEvery,
		Snap: windowSnap(t, task.Nrow, task.Ncol, task.PassEvery)}
	rep, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Entries: []PushEntry{entry}})
	if err != nil || !rep.Entries[0].Fenced {
		t.Fatalf("epoch-less push: %+v, %v; want fenced", rep, err)
	}
	if err := m.nackTask(NackArgs{Worker: at.Worker, RunID: st.ID, LeaseID: task.Lease.ID, Reason: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.failTask(FailArgs{Worker: at.Worker, RunID: st.ID, LeaseID: task.Lease.ID, Reason: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.detach(DetachArgs{Worker: at.Worker}); err != nil {
		t.Fatal(err)
	}
	rs, err := m.Run(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.State != StateRunning || rs.N != 0 || rs.Leases.Outstanding != 1 || rs.Leases.Nacks != 0 || rs.Leases.Reissued != 0 {
		t.Fatalf("epoch-less calls changed the run: %+v", rs)
	}
	// The same push under the attach epoch lands.
	rep, err = m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: []PushEntry{entry}})
	if err != nil || rep.Entries[0].Fenced || rep.Entries[0].Err != "" {
		t.Fatalf("fenced push: %+v, %v", rep, err)
	}
	if rs, _ := m.Run(st.ID); rs.N != task.PassEvery {
		t.Fatalf("N = %d after the fenced push, want %d", rs.N, task.PassEvery)
	}
}

func init() {
	// A workload whose routine panics, for TestFleetRealizationPanic.
	workload.Register(workload.Definition{
		Name:        "panicroutine",
		Description: "test workload whose realization panics",
		Schema:      workload.Schema{Version: 1},
		Dims:        func(workload.Values) (int, int) { return 1, 1 },
		Factory: func(workload.Values) (core.Factory, error) {
			return func(int) (core.Realization, error) {
				return func(*rng.Stream, []float64) error { panic("user bug") }, nil
			}, nil
		},
	})
	// A workload whose factory hands back no routine, for
	// TestNilRealizationRejected.
	workload.Register(workload.Definition{
		Name:        "nilroutine",
		Description: "test workload whose factory returns (nil, nil)",
		Schema:      workload.Schema{Version: 1},
		Dims:        func(workload.Values) (int, int) { return 1, 1 },
		Factory: func(workload.Values) (core.Factory, error) {
			return nilFactory, nil
		},
	})
}

func nilFactory(int) (core.Realization, error) { return nil, nil }

// TestFleetRealizationPanic: a panicking realization fails its run with
// the panic in the error — through the shared core.RunLease wrapper —
// and leaves the fleet worker alive to serve the next run.
func TestFleetRealizationPanic(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, 1, FleetWorkerConfig{})
	st, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "panicroutine"}, MaxSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateFailed, 10*time.Second)
	if !strings.Contains(final.Error, "realization panicked: user bug") {
		t.Fatalf("run error %q does not carry the panic", final.Error)
	}
	next, err := m.Submit(piSubmission(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, next.ID, StateDone, 10*time.Second)
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestNilRealizationRejected: a factory that returns (nil, nil) is
// refused with the same message on all three transports, before any
// realization is attempted — none of them may dereference the nil
// routine.
func TestNilRealizationRejected(t *testing.T) {
	const want = "factory returned nil realization for worker"
	transports := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"core", func(t *testing.T) error {
			_, err := core.RunFactory(context.Background(), core.Config{
				Nrow: 1, Ncol: 1, MaxSamples: 10, Workers: 2, WorkDir: t.TempDir(),
			}, nilFactory)
			return err
		}},
		{"cluster", func(t *testing.T) error {
			coord, err := cluster.NewCoordinator(cluster.JobSpec{
				Nrow: 1, Ncol: 1, MaxSamples: 10, Params: rng.DefaultParams(), Gamma: 3, PassEvery: 5,
			}, cluster.CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			_, err = cluster.RunWorker(context.Background(), coord.Addr(), cluster.WorkerConfig{}, nilFactory)
			return err
		}},
		{"runmgr", func(t *testing.T) error {
			m := newManager(t, testConfig(t))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g := m.StartLocalWorkers(ctx, 1, FleetWorkerConfig{})
			st, err := m.Submit(Submission{Scenario: workload.Spec{Workload: "nilroutine"}, MaxSamples: 10})
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, m, st.ID, StateFailed, 10*time.Second)
			cancel()
			if _, err := g.Wait(); err != nil {
				t.Fatalf("fleet worker died instead of nacking: %v", err)
			}
			return errors.New(final.Error)
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.run(t); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want mention of %q", err, want)
			}
		})
	}
}

// TestServiceRunDataDirContract: a service run's parmonc_data holds
// exactly the paper's three results files, the run image
// (checkpoint.dat), the experiment log and the run's event journal —
// no other state file.
func TestServiceRunDataDirContract(t *testing.T) {
	cfg := testConfig(t)
	m := newManager(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})
	st, err := m.Submit(piSubmission(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone, 30*time.Second)

	data := filepath.Join(cfg.DataRoot, st.ID, store.DataDir)
	var got []string
	err = filepath.WalkDir(data, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(data, p)
		got = append(got, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{"checkpoint.dat", "events.jsonl", "parmonc_exp.dat",
		"results/func.dat", "results/func_ci.dat", "results/func_log.dat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service run's parmonc_data holds %q, want %q", got, want)
	}
}
