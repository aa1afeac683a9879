package runmgr

// Wire-efficiency suite for the fleet protocol: the coordinator-side
// long-poll, the coalesced PushBatch path, backpressure, and the
// benchmarks that pin the RPC-per-realization budget.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"parmonc/internal/stat"
	"parmonc/internal/workload"
)

// windowSnap builds one valid push-window snapshot of n realizations.
func windowSnap(tb testing.TB, nrow, ncol int, n int64) stat.Snapshot {
	tb.Helper()
	acc := stat.New(nrow, ncol)
	out := make([]float64, nrow*ncol)
	for i := range out {
		out[i] = 0.5
	}
	for i := int64(0); i < n; i++ {
		if err := acc.AddTimed(out, time.Microsecond); err != nil {
			tb.Fatal(err)
		}
	}
	return acc.Snapshot()
}

// Shape of the run runFleetCountingRPCs hosts: 8 leases of 20 push
// windows each.
const (
	rpcRunSamples   = 4000
	rpcRunPassEvery = 25
	rpcRunWindows   = rpcRunSamples / rpcRunPassEvery
)

// runFleetCountingRPCs completes one hosted run on a local fleet and
// returns the coordinator RPCs of every kind (attach, pull, push
// batches, detach) it took.
func runFleetCountingRPCs(tb testing.TB, workers int) int64 {
	tb.Helper()
	cfg := Config{DataRoot: tb.TempDir(), AverPeriod: 20 * time.Millisecond}
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, workers, FleetWorkerConfig{
		PullWait:      time.Second,
		FlushInterval: 10 * time.Millisecond,
	})
	st, err := m.Submit(Submission{
		Scenario:   workload.Spec{Workload: "pi"},
		MaxSamples: rpcRunSamples,
		PassEvery:  rpcRunPassEvery,
		LeaseSize:  500,
	})
	if err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, err := m.Run(st.ID)
		if err != nil {
			tb.Fatal(err)
		}
		if s.State == StateDone {
			break
		}
		if s.State.Terminal() {
			tb.Fatalf("run ended %s: %s", s.State, s.Error)
		}
		if time.Now().After(deadline) {
			tb.Fatalf("run stuck in %s", s.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	calls := m.fleetCalls.Load()
	cancel()
	if _, err := g.Wait(); err != nil {
		tb.Fatal(err)
	}
	return calls
}

// TestFleetRPCReduction pins the wire-efficiency bound of the batched,
// long-polled protocol against the run's own shape: a protocol that
// spent one RPC per push window would need at least rpcRunWindows
// calls, and the whole run — pulls and attach/detach included — must
// take at most half that.
func TestFleetRPCReduction(t *testing.T) {
	rpcs := runFleetCountingRPCs(t, 4)
	t.Logf("%d coordinator RPCs for %d push windows (%.1f windows/RPC)", rpcs, rpcRunWindows, float64(rpcRunWindows)/float64(rpcs))
	if rpcs > rpcRunWindows/2 {
		t.Fatalf("run of %d push windows took %d coordinator RPCs, want at most %d", rpcRunWindows, rpcs, rpcRunWindows/2)
	}
}

// TestIdleFleetPullRate: an 8-worker fleet with nothing to do must
// cost at most 2 Pull RPC/s/worker — the long-poll parks each worker
// for the wait window instead of letting it spin on the poll timer.
func TestIdleFleetPullRate(t *testing.T) {
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 8
	window := 2 * time.Second
	g := m.StartLocalWorkers(ctx, workers, FleetWorkerConfig{PullWait: time.Second})
	time.Sleep(window)
	pulls := m.pullCalls.Load()
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	budget := int64(2 * workers * int(window/time.Second)) // 2 RPC/s/worker
	if pulls > budget {
		t.Fatalf("idle fleet issued %d pulls in %v (budget %d): long-poll not parking", pulls, window, budget)
	}
	if pulls < workers {
		t.Fatalf("only %d pulls from %d workers — fleet never polled at all", pulls, workers)
	}
}

// TestLongPollWakeOnSubmit: a pull parked in the long-poll is granted
// work as soon as a submission makes some — not at its deadline.
func TestLongPollWakeOnSubmit(t *testing.T) {
	m := newManager(t, testConfig(t))
	at, err := m.attach(AttachArgs{ClientID: "longpoll"})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan PullReply, 1)
	go func() {
		pr, _ := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch, Wait: 10 * time.Second})
		parked <- pr
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case pr := <-parked:
		t.Fatalf("pull answered %+v before any work existed", pr)
	default:
	}
	t0 := time.Now()
	if _, err := m.Submit(piSubmission(2000, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case pr := <-parked:
		if !pr.Granted {
			t.Fatalf("woken pull got %+v, want a grant", pr)
		}
		if el := time.Since(t0); el > 2*time.Second {
			t.Fatalf("submission took %v to wake the parked pull", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pull still parked long after submission")
	}
}

// TestPushBatchOrdering: a batch carrying several in-order windows of
// one lease merges entirely — the per-lease done ledger accepts the
// same strictly-increasing sequence it would see unbatched.
func TestPushBatchOrdering(t *testing.T) {
	m := newManager(t, testConfig(t))
	if _, err := m.Submit(piSubmission(100_000, 1)); err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{ClientID: "order"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: %+v, %v", pr, err)
	}
	task := pr.Task
	snap := windowSnap(t, task.Nrow, task.Ncol, task.PassEvery)
	var entries []PushEntry
	for i := int64(1); i <= 4; i++ {
		entries = append(entries, PushEntry{
			RunID: task.RunID, LeaseID: task.Lease.ID, Done: i * task.PassEvery, Snap: snap,
		})
	}
	rep, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	for i, er := range rep.Entries {
		if er.Err != "" || er.Fenced || er.Final {
			t.Fatalf("entry %d rejected: %+v", i, er)
		}
	}
	st, err := m.Run(task.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * task.PassEvery; st.N != want {
		t.Fatalf("merged N = %d after batch, want %d", st.N, want)
	}
	// A replayed (duplicate) batch must dedup to nothing: same absolute
	// substream positions, already merged.
	rep, err = m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	for i, er := range rep.Entries {
		if er.Err != "" {
			t.Fatalf("replayed entry %d errored: %q", i, er.Err)
		}
	}
	if st, _ = m.Run(task.RunID); st.N != 4*task.PassEvery {
		t.Fatalf("duplicate batch changed N to %d", st.N)
	}
}

// TestPushBatchBackpressure: when a run's collector saves take longer
// than the averaging period, batched pushes answer a positive
// RetryAfter so workers stretch their cadence. The clock is a stepping
// fake — every read advances it 30ms, so each save cycle "takes" at
// least one step against a 1ms averaging period.
func TestPushBatchBackpressure(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	cfg := testConfig(t)
	cfg.AverPeriod = time.Millisecond
	cfg.Now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(30 * time.Millisecond)
		return now
	}
	m := newManager(t, cfg)
	if _, err := m.Submit(piSubmission(100_000, 1)); err != nil {
		t.Fatal(err)
	}
	at, err := m.attach(AttachArgs{ClientID: "bp"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: %+v, %v", pr, err)
	}
	task := pr.Task
	snap := windowSnap(t, task.Nrow, task.Ncol, task.PassEvery)
	var rep PushBatchReply
	for i := int64(1); i <= 3; i++ {
		rep, err = m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: []PushEntry{{
			RunID: task.RunID, LeaseID: task.Lease.ID, Done: i * task.PassEvery, Snap: snap,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if e := rep.Entries[0]; e.Err != "" || e.Fenced {
			t.Fatalf("push %d rejected: %+v", i, e)
		}
	}
	if rep.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v with lagging saves, want > 0", rep.RetryAfter)
	}
	if rep.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want capped at 1s", rep.RetryAfter)
	}
}

// TestDetachReissuesLeases: canceling a worker's context detaches it
// and reissues its leases immediately. The lease timeout is an hour,
// so any reissue observed here can only have come from the detach.
func TestDetachReissuesLeases(t *testing.T) {
	cfg := testConfig(t)
	cfg.LeaseTimeout = time.Hour
	m := newManager(t, cfg)
	st, err := m.Submit(Submission{
		Scenario:   workload.Spec{Workload: "pi"},
		MaxSamples: 10_000_000,
		PassEvery:  1000,
		LeaseSize:  500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := m.Run(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.Leases.Outstanding > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease ever granted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	s, err := m.Run(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.Leases.Outstanding != 0 {
		t.Fatalf("%d leases still outstanding after all workers detached", s.Leases.Outstanding)
	}
	if s.Leases.Reissued == 0 {
		t.Fatal("no lease reissued on detach — remainder would wait out the 1h timeout")
	}
}

// TestRunsAPIMethodDispatch: every /runs route enforces its method set
// with 405 + Allow, and every error answer — including unknown routes —
// is the same JSON envelope {"error": "..."}.
func TestRunsAPIMethodDispatch(t *testing.T) {
	m := newManager(t, testConfig(t))
	st, err := m.Submit(piSubmission(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handler()
	cases := []struct {
		name      string
		method    string
		path      string
		wantCode  int
		wantAllow string
	}{
		{"put runs", http.MethodPut, "/runs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"delete collection", http.MethodDelete, "/runs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"patch runs", http.MethodPatch, "/runs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"post run id", http.MethodPost, "/runs/" + st.ID, http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
		{"put run id", http.MethodPut, "/runs/" + st.ID, http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
		{"post report", http.MethodPost, "/runs/" + st.ID + "/report", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"delete report", http.MethodDelete, "/runs/" + st.ID + "/report", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"unknown route", http.MethodGet, "/nope", http.StatusNotFound, ""},
		{"trailing slash", http.MethodGet, "/runs/", http.StatusNotFound, ""},
		{"get runs ok", http.MethodGet, "/runs", http.StatusOK, ""},
		{"get run ok", http.MethodGet, "/runs/" + st.ID, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			if rec.Code != tc.wantCode {
				t.Fatalf("%s %s = %d, want %d (body %q)", tc.method, tc.path, rec.Code, tc.wantCode, rec.Body.String())
			}
			if got := rec.Header().Get("Allow"); got != tc.wantAllow {
				t.Fatalf("Allow = %q, want %q", got, tc.wantAllow)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
				t.Fatalf("Content-Type = %q, want JSON", ct)
			}
			if tc.wantCode >= 400 {
				var envelope struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
					t.Fatalf("error body %q is not the JSON envelope (err %v)", rec.Body.String(), err)
				}
			}
		})
	}
}

// BenchmarkFleetRPCPerRealization measures coordinator RPCs per merged
// realization of one hosted run, reported as rpcs/real alongside the
// usual ns/op, plus the push windows each RPC carried on average.
func BenchmarkFleetRPCPerRealization(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		total += runFleetCountingRPCs(b, 4)
	}
	b.ReportMetric(float64(total)/float64(b.N)/rpcRunSamples, "rpcs/real")
	b.ReportMetric(float64(rpcRunWindows)*float64(b.N)/float64(total), "windows/rpc")
}

// BenchmarkPushBatch drives the coordinator's batch-merge entry point
// directly: 16 in-order windows per RPC against one long lease.
func BenchmarkPushBatch(b *testing.B) {
	cfg := Config{DataRoot: b.TempDir(), MaxRealizations: 100_000_000}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	const (
		maxsv     = int64(80_000_000)
		passEvery = int64(100)
		perBatch  = 16
	)
	at, err := m.attach(AttachArgs{ClientID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	// One huge lease per run keeps grant traffic off the hot path; when
	// a long -benchtime drains it, submit a fresh run and keep going
	// (the re-lease cost is amortized over tens of thousands of ops).
	newTask := func() Task {
		if _, err := m.Submit(Submission{
			Scenario:   workload.Spec{Workload: "pi"},
			MaxSamples: maxsv,
			PassEvery:  passEvery,
			LeaseSize:  maxsv,
		}); err != nil {
			b.Fatal(err)
		}
		pr, err := m.pullTask(context.Background(), PullArgs{Worker: at.Worker, Epoch: at.Epoch})
		if err != nil || !pr.Granted {
			b.Fatalf("pull: %+v, %v", pr, err)
		}
		return pr.Task
	}
	task := newTask()
	snap := windowSnap(b, task.Nrow, task.Ncol, passEvery)
	batchesLeft := task.Lease.Count / passEvery / perBatch
	entries := make([]PushEntry, perBatch)
	done := int64(0)
	// Warm the merge path (collector shards, journal buffers) so a
	// low-N run measures steady-state batch application, not setup.
	for k := range entries {
		done += passEvery
		entries[k] = PushEntry{RunID: task.RunID, LeaseID: task.Lease.ID, Done: done, Snap: snap}
	}
	if _, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries}); err != nil {
		b.Fatal(err)
	}
	batchesLeft--
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batchesLeft == 0 {
			task = newTask()
			batchesLeft = task.Lease.Count / passEvery / perBatch
			done = 0
		}
		batchesLeft--
		for k := range entries {
			done += passEvery
			entries[k] = PushEntry{RunID: task.RunID, LeaseID: task.Lease.ID, Done: done, Snap: snap}
		}
		rep, err := m.pushBatch(PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: entries})
		if err != nil {
			b.Fatal(err)
		}
		if e := rep.Entries[0]; e.Err != "" || e.Fenced || e.Final {
			b.Fatalf("batch %d rejected: %+v", i, e)
		}
	}
	b.ReportMetric(float64(perBatch), "windows/op")
}
