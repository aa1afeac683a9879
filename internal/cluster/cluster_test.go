package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// runWorker is RunWorker with the zero configuration, for the tests
// that only care whether the session succeeded.
func runWorker(ctx context.Context, addr string, factory core.Factory) error {
	_, err := RunWorker(ctx, addr, WorkerConfig{}, factory)
	return err
}

// acquireLease grants reg's session its next lease, as the worker
// loop's Acquire call would, so a hand-driven test can stamp its pushes
// the way the protocol requires.
func acquireLease(t *testing.T, c *Coordinator, reg RegisterReply) collect.Lease {
	t.Helper()
	var aq AcquireReply
	if err := (&service{c}).Acquire(AcquireArgs{Worker: reg.Worker, Epoch: reg.Epoch}, &aq); err != nil || !aq.Granted {
		t.Fatalf("acquire for worker %d: %+v, %v", reg.Worker, aq, err)
	}
	return aq.Lease
}

func uniformRealization(int) (core.Realization, error) {
	return func(src *rng.Stream, out []float64) error {
		out[0] = src.Float64()
		return nil
	}, nil
}

func testSpec(maxSV int64) JobSpec {
	return JobSpec{
		SeqNum:     0,
		Nrow:       1,
		Ncol:       1,
		MaxSamples: maxSV,
		Params:     rng.DefaultParams(),
		Gamma:      3,
		PassEvery:  50,
	}
}

// launch starts a coordinator and n workers, waits for completion, and
// returns the final report.
func launch(t *testing.T, spec JobSpec, cfg CoordinatorConfig, n int) (float64, int64) {
	t.Helper()
	coord, err := NewCoordinator(spec, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
				errCh <- err
			}
		}()
	}

	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for e := range errCh {
		t.Fatal(e)
	}
	return rep.MeanAt(0, 0), rep.N
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec(100).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*JobSpec){
		func(s *JobSpec) { s.Nrow = 0 },
		func(s *JobSpec) { s.Ncol = -1 },
		func(s *JobSpec) { s.PassEvery = 0 },
		func(s *JobSpec) { s.Gamma = 0 },
		func(s *JobSpec) { s.Params.ProcessorLeapLog2 = 126 },
	}
	for i, mutate := range bad {
		s := testSpec(100)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSingleWorkerJob(t *testing.T) {
	mean, n := launch(t, testSpec(500), CoordinatorConfig{WorkDir: t.TempDir(), AverPeriod: time.Millisecond}, 1)
	if n < 500 {
		t.Fatalf("N = %d, want >= 500", n)
	}
	if math.Abs(mean-0.5) > 0.1 {
		t.Fatalf("mean = %g", mean)
	}
}

func TestManyWorkersConverge(t *testing.T) {
	mean, n := launch(t, testSpec(5000), CoordinatorConfig{WorkDir: t.TempDir(), AverPeriod: time.Millisecond}, 8)
	if n < 5000 {
		t.Fatalf("N = %d, want >= 5000", n)
	}
	if math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("mean = %g", mean)
	}
}

func TestResultsFilesWritten(t *testing.T) {
	dir := t.TempDir()
	launch(t, testSpec(500), CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, 2)
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	nrow, ncol, vals, err := d.LoadMeans()
	if err != nil {
		t.Fatal(err)
	}
	if nrow != 1 || ncol != 1 || math.Abs(vals[0]-0.5) > 0.1 {
		t.Fatalf("saved means %dx%d %v", nrow, ncol, vals)
	}
}

func TestResumeAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(1000)
	launch(t, spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, 2)

	spec.SeqNum = 1
	_, n := launch(t, spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond, Resume: true}, 2)
	if n < 2000 {
		t.Fatalf("resumed N = %d, want >= 2000", n)
	}
}

func TestResumeRejectsSameSeqNum(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(200)
	launch(t, spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, 1)
	if _, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: dir, Resume: true}, "127.0.0.1:0"); err == nil {
		t.Fatal("expected same-seqnum rejection")
	}
}

func TestWorkerJoinsAfterCompletion(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(100)
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()
	if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
		t.Fatal(err)
	}
	// Target reached; a late worker must be turned away cleanly.
	if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorStopHaltsUnboundedJob(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(0) // unbounded
	spec.PassEvery = 10
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx := context.Background()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- runWorker(ctx, coord.Addr(), uniformRealization)
	}()

	// Let it simulate a bit, then stop.
	for coord.N() < 100 {
		time.Sleep(time.Millisecond)
	}
	coord.Stop()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N < 100 {
		t.Fatalf("N = %d", rep.N)
	}
}

func TestContextCancelStopsJob(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(0)
	spec.PassEvery = 10
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	wctx := context.Background()
	go runWorker(wctx, coord.Addr(), uniformRealization)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for coord.N() < 50 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N < 50 {
		t.Fatalf("N = %d", rep.N)
	}
}

func TestPushFromUnknownWorkerRejected(t *testing.T) {
	svc := &service{}
	coord, err := NewCoordinator(testSpec(10), CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	svc.c = coord
	// A fully stamped push from an index that was never assigned is a
	// zombie's: acknowledged as fenced, never merged.
	snap := stat.New(1, 1)
	if err := snap.Add([]float64{0.5}); err != nil {
		t.Fatal(err)
	}
	var pr PushReply
	if err := svc.Push(PushArgs{Worker: 99, Epoch: 1, Seq: 1, Lease: 1, Done: 1, Snap: snap.Snapshot()}, &pr); err != nil || !pr.Fenced {
		t.Fatalf("push from unknown worker: reply %+v, err %v; want fenced", pr, err)
	}
	if n := coord.N(); n != 0 {
		t.Fatalf("push from unknown worker merged: N = %d", n)
	}
	var dr DoneReply
	if err := svc.Done(DoneArgs{Worker: 99}, &dr); err == nil {
		t.Fatal("expected unknown-worker error")
	}
}

func TestPushMalformedSnapshotRejected(t *testing.T) {
	// A registered worker pushing a wrong-dimension or internally
	// inconsistent snapshot must be refused over the wire, with the
	// totals untouched — the engine validates at the merge boundary for
	// every transport, so a buggy or hostile worker binary cannot
	// corrupt the statistics.
	coord, err := NewCoordinator(testSpec(1000), CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	client, err := rpc.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reg RegisterReply
	if err := client.Call(ServiceName+".Register", RegisterArgs{}, &reg); err != nil {
		t.Fatal(err)
	}
	l := acquireLease(t, coord, reg)
	stamped := func(seq uint64, done int64, snap stat.Snapshot) PushArgs {
		return PushArgs{Worker: reg.Worker, Epoch: reg.Epoch, Seq: seq, Lease: l.ID, Done: done, Snap: snap}
	}

	// One good push to establish a baseline total.
	good := stat.New(1, 1)
	if err := good.Add([]float64{0.5}); err != nil {
		t.Fatal(err)
	}
	var pr PushReply
	if err := client.Call(ServiceName+".Push", stamped(1, 1, good.Snapshot()), &pr); err != nil {
		t.Fatal(err)
	}

	// Wrong dimensions for the job.
	wrong := stat.New(2, 3)
	if err := wrong.Add([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(ServiceName+".Push", stamped(2, 2, wrong.Snapshot()), &pr); err == nil {
		t.Fatal("wrong-dimension push accepted over RPC")
	}

	// Internally inconsistent snapshot.
	bad := good.Snapshot()
	bad.N = -5
	if err := client.Call(ServiceName+".Push", stamped(2, 2, bad), &pr); err == nil {
		t.Fatal("malformed push accepted over RPC")
	}

	if got := coord.N(); got != 1 {
		t.Fatalf("rejected pushes changed the total: N = %d, want 1", got)
	}
	st := coord.Status()
	if st.Metrics.RejectedSnapshots != 2 {
		t.Fatalf("RejectedSnapshots = %d, want 2", st.Metrics.RejectedSnapshots)
	}
	if st.Metrics.Merges != 1 || st.Metrics.Pushes != 3 {
		t.Fatalf("merges/pushes = %d/%d, want 1/3", st.Metrics.Merges, st.Metrics.Pushes)
	}
}

func TestStatusReportsMetrics(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(testSpec(300), CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runWorker(ctx, coord.Addr(), uniformRealization) }()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := coord.Status()
	if !st.TargetReached {
		t.Fatal("Status.TargetReached false after Wait")
	}
	if st.ActiveWorkers != 0 {
		t.Fatalf("ActiveWorkers = %d after completion", st.ActiveWorkers)
	}
	if st.N < 300 || st.N != st.Metrics.Merges*50 {
		t.Fatalf("N = %d, merges = %d (PassEvery 50)", st.N, st.Metrics.Merges)
	}
	m := st.Metrics
	if m.Pushes == 0 || m.Merges == 0 || m.Saves == 0 || m.RegisteredWorkers != 1 {
		t.Fatalf("zero counters in %+v", m)
	}
}

func TestNilFactoryRejected(t *testing.T) {
	if err := runWorker(context.Background(), "127.0.0.1:1", nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestDialFailure(t *testing.T) {
	err := runWorker(context.Background(), "127.0.0.1:1", uniformRealization)
	if err == nil {
		t.Fatal("expected dial error")
	}
}

func TestCrashedWorkerPruned(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(300)
	spec.Heartbeat = 100 * time.Millisecond / 3 // × default MissBudget 3 = 100 ms of silence
	coord, err := NewCoordinator(spec, CoordinatorConfig{
		WorkDir:    dir,
		AverPeriod: time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Register a worker that then vanishes without pushing or detaching.
	svc := &service{coord}
	var dead RegisterReply
	if err := svc.Register(RegisterArgs{Hostname: "doomed"}, &dead); err != nil {
		t.Fatal(err)
	}
	if dead.Stop {
		t.Fatal("fresh job should not be complete")
	}

	// A healthy worker does all the work.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
			t.Error(err)
		}
	}()

	// Without pruning, Wait would hang on the dead worker until ctx
	// expires; with the timeout it must complete well before.
	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N < 300 {
		t.Fatalf("N = %d", rep.N)
	}
	if coord.PrunedWorkers() != 1 {
		t.Fatalf("pruned %d workers, want 1", coord.PrunedWorkers())
	}
	if ctx.Err() != nil {
		t.Fatal("completion relied on context expiry, not pruning")
	}
}

func TestHealthyWorkersNotPruned(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(2000)
	spec.PassEvery = 20                  // frequent pushes keep lastSeen fresh
	spec.Heartbeat = 2 * time.Second / 3 // × default MissBudget 3 = 2 s of silence
	coord, err := NewCoordinator(spec, CoordinatorConfig{
		WorkDir:    dir,
		AverPeriod: time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
				t.Error(err)
			}
		}()
	}
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if coord.PrunedWorkers() != 0 {
		t.Fatalf("pruned %d healthy workers", coord.PrunedWorkers())
	}
}

func TestManaverRecoversClusterJob(t *testing.T) {
	// The paper's Sec. 3.4 workflow for cluster jobs: the coordinator
	// dies before its final save; manaver rebuilds the results from the
	// per-worker snapshot files.
	dir := t.TempDir()
	spec := testSpec(600)
	spec.PassEvery = 50
	coord, err := NewCoordinator(spec, CoordinatorConfig{
		WorkDir:             dir,
		AverPeriod:          time.Hour, // never saves mid-run
		SaveWorkerSnapshots: true,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
				t.Error(err)
			}
		}()
	}
	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Simulate the coordinator having died before its first save:
	// rewind the run image to the one the run start wrote, keep worker
	// files, run manaver.
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	img, err := d.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveCheckpoint(img.Base, img.Meta); err != nil {
		t.Fatal(err)
	}
	recovered, err := core.Manaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.N != rep.N {
		t.Fatalf("manaver recovered N = %d, coordinator had %d", recovered.N, rep.N)
	}
	if math.Abs(recovered.MeanAt(0, 0)-rep.MeanAt(0, 0)) > 1e-12 {
		t.Fatalf("manaver mean %g, coordinator mean %g", recovered.MeanAt(0, 0), rep.MeanAt(0, 0))
	}
}

// constantRetry is the startup-race policy: dial up to attempts times
// at a constant delay, so a worker started before its coordinator joins
// once the listener is up.
func constantRetry(attempts int, delay time.Duration) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: delay, MaxDelay: delay, Multiplier: 1}
}

func TestRunWorkerRetriesUntilCoordinatorUp(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(200)

	// Reserve an address, start the worker first, bring the coordinator
	// up after a delay on that same address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), addr,
			WorkerConfig{Retry: constantRetry(50, 20*time.Millisecond)}, uniformRealization)
		done <- err
	}()

	time.Sleep(150 * time.Millisecond)
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: dir, AverPeriod: time.Millisecond}, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if coord.N() < 200 {
		t.Fatalf("N = %d", coord.N())
	}
}

func TestRunWorkerGivesUp(t *testing.T) {
	policy := constantRetry(2, time.Millisecond)
	policy.DialTimeout = 100 * time.Millisecond
	rep, err := RunWorker(context.Background(), "127.0.0.1:1", WorkerConfig{Retry: policy}, uniformRealization)
	if err == nil {
		t.Fatal("expected unreachable error")
	}
	if rep.Retries != 1 {
		t.Fatalf("2 attempts made %d retries, want 1", rep.Retries)
	}
}

func TestRunWorkerRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWorker(ctx, "127.0.0.1:1",
		WorkerConfig{Retry: constantRetry(100, 500*time.Millisecond)}, uniformRealization)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWorkloadIdentityChecked(t *testing.T) {
	spec := testSpec(1000)
	spec.Workload = fullIdentity(t, "pi", nil)
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: t.TempDir(), AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	// Mismatched workload: rejected at registration.
	if _, err := RunWorker(ctx, coord.Addr(), WorkerConfig{Workload: fullIdentity(t, "diffusion", nil)}, uniformRealization); err == nil {
		t.Fatal("mismatched workload accepted")
	}
	// Matching workload completes the job.
	if _, err := RunWorker(ctx, coord.Addr(), WorkerConfig{Workload: fullIdentity(t, "pi", nil)}, uniformRealization); err != nil {
		t.Fatal(err)
	}
	// Anonymous workers (user-supplied factories) are allowed.
	if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
		t.Fatal(err)
	}
	coord.Stop()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWireSizePaperComparison(t *testing.T) {
	// The paper reports ≈120 KB per message for the 1000×2 matrix. Our
	// gob encoding of the same payload must be the ~32 KB the
	// EXPERIMENTS.md message-size note claims (2×2000 float64 + meta).
	acc := stat.New(1000, 2)
	row := make([]float64, 2000)
	for i := range row {
		row[i] = float64(i) * 1.7
	}
	if err := acc.Add(row); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(PushArgs{Worker: 1, Snap: acc.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if size < 30_000 || size > 40_000 {
		t.Fatalf("1000×2 snapshot encodes to %d bytes; EXPERIMENTS.md claims ≈32 KB", size)
	}
}

// TestClusterWorkerRealizationPanic: a realization that panics inside a
// TCP worker must fail that worker with an error — as the in-process
// driver and the fleet worker do — instead of crashing the process, and
// must leave the coordinator able to finish the job with another worker.
func TestClusterWorkerRealizationPanic(t *testing.T) {
	coord, err := NewCoordinator(testSpec(200), CoordinatorConfig{WorkDir: t.TempDir(), AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	calls := 0
	rep, err := RunWorker(ctx, coord.Addr(), WorkerConfig{}, func(int) (core.Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			if calls++; calls == 7 {
				panic("user bug")
			}
			out[0] = src.Float64()
			return nil
		}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "realization panicked: user bug") {
		t.Fatalf("panicking realization: err = %v, want realization panicked: user bug", err)
	}
	if rep.Realizations != 6 {
		t.Fatalf("worker counted %d realizations before the panic, want 6", rep.Realizations)
	}

	// The failed worker's Done released its lease; a healthy worker
	// recomputes it and completes the exact target.
	if err := runWorker(ctx, coord.Addr(), uniformRealization); err != nil {
		t.Fatal(err)
	}
	report, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.N != 200 {
		t.Fatalf("N = %d after the panicking worker left, want 200", report.N)
	}
}

// TestPushUnstampedRejected: the wire accepts only sequenced, fenced,
// leased pushes. A push missing any of the three stamps is rejected
// definitively (an application error, never retried) and leaves the
// totals untouched.
func TestPushUnstampedRejected(t *testing.T) {
	coord, err := NewCoordinator(testSpec(1000), CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	policy := DefaultRetryPolicy()
	policy.BaseDelay = time.Millisecond
	rc := NewResilientClient(coord.Addr(), policy)
	defer rc.Close()
	ctx := context.Background()

	var reg RegisterReply
	if err := rc.Call(ctx, ServiceName+".Register", RegisterArgs{ClientID: "unstamped"}, &reg); err != nil {
		t.Fatal(err)
	}
	l := acquireLease(t, coord, reg)
	acc := stat.New(1, 1)
	if err := acc.Add([]float64{0.25}); err != nil {
		t.Fatal(err)
	}
	full := PushArgs{Worker: reg.Worker, Epoch: reg.Epoch, Seq: 1, Lease: l.ID, Done: 1, Snap: acc.Snapshot()}
	cases := []struct {
		name  string
		strip func(*PushArgs)
	}{
		{"unsequenced", func(a *PushArgs) { a.Seq = 0 }},
		{"unfenced", func(a *PushArgs) { a.Epoch = 0 }},
		{"unleased", func(a *PushArgs) { a.Lease = 0 }},
		{"bare", func(a *PushArgs) { a.Seq, a.Epoch, a.Lease, a.Done = 0, 0, 0, 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := full
			tc.strip(&args)
			var pr PushReply
			err := rc.Call(ctx, ServiceName+".Push", args, &pr)
			if err == nil || !strings.Contains(err.Error(), "must carry a sequence number, epoch and lease") {
				t.Fatalf("err = %v, want a definitive rejection", err)
			}
		})
	}
	if st := rc.Stats(); st.Retries != 0 {
		t.Fatalf("definitive rejections were retried %d times", st.Retries)
	}
	if n := coord.N(); n != 0 {
		t.Fatalf("rejected pushes changed the total: N = %d", n)
	}
	// The fully stamped push still lands.
	var pr PushReply
	if err := rc.Call(ctx, ServiceName+".Push", full, &pr); err != nil || pr.Fenced {
		t.Fatalf("stamped push: reply %+v, err %v", pr, err)
	}
	if n := coord.N(); n != 1 {
		t.Fatalf("N = %d after the stamped push, want 1", n)
	}
}
