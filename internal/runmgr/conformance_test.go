package runmgr

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

// The multi-run conformance contract: a run executed on a shared fleet
// alongside other runs produces a report bit-identical to the same
// submission executed alone. The shard layout is the lease partition
// (a pure function of maxsv and lease size), realizations are
// substream-addressed, and push windows are a pure function of the
// partition and PassEvery — so neither the number of fleet workers nor
// the interleaving with other runs can move a single bit.
//
// MeanSimTime is wall-clock derived and excluded by construction (it
// is not part of the compared fields).

// conformanceSubs are the submissions every conformance test runs:
// different workloads, sizes, and cadences, with pinned subsequences
// so the isolated counterpart draws identical random numbers.
func conformanceSubs() []Submission {
	return []Submission{
		{
			Scenario:   workload.Spec{Workload: "pi"},
			MaxSamples: 20_000,
			SeqNum:     11,
			PassEvery:  100,
			LeaseSize:  1_500, // deliberately not a multiple of PassEvery
		},
		{
			Scenario:   workload.Spec{Workload: "mm1", Params: workload.Values{"lambda": 0.5}},
			MaxSamples: 6_000,
			SeqNum:     12,
			PassEvery:  50,
			LeaseSize:  1_000,
		},
	}
}

// runIsolated executes sub alone: a dedicated manager, one local
// worker, nothing else competing — the reference a shared-fleet run
// must reproduce exactly.
func runIsolated(t *testing.T, sub Submission) ReportPayload {
	t.Helper()
	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 1, FleetWorkerConfig{})
	st, err := m.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone, 120*time.Second)
	rep, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameBits compares float64s exactly, treating identical NaN payloads
// as equal (== would reject NaN == NaN).
func sameBits(a, b JSONFloat) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func compareReports(t *testing.T, label string, got, want ReportPayload) {
	t.Helper()
	if got.N != want.N {
		t.Errorf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if got.Nrow != want.Nrow || got.Ncol != want.Ncol {
		t.Fatalf("%s: dims %dx%d, want %dx%d", label, got.Nrow, got.Ncol, want.Nrow, want.Ncol)
	}
	matrices := []struct {
		name     string
		got, ref []JSONFloat
	}{
		{"mean", got.Mean, want.Mean},
		{"var", got.Var, want.Var},
		{"abs_err", got.AbsErr, want.AbsErr},
		{"rel_err", got.RelErr, want.RelErr},
	}
	for _, mx := range matrices {
		if len(mx.got) != len(mx.ref) {
			t.Fatalf("%s: %s has %d entries, want %d", label, mx.name, len(mx.got), len(mx.ref))
		}
		for i := range mx.got {
			if !sameBits(mx.got[i], mx.ref[i]) {
				t.Errorf("%s: %s[%d] = %v (bits %x), want %v (bits %x)",
					label, mx.name, i,
					float64(mx.got[i]), math.Float64bits(float64(mx.got[i])),
					float64(mx.ref[i]), math.Float64bits(float64(mx.ref[i])))
			}
		}
	}
	for _, s := range []struct {
		name     string
		got, ref JSONFloat
	}{
		{"max_abs_err", got.MaxAbsErr, want.MaxAbsErr},
		{"max_rel_err", got.MaxRelErr, want.MaxRelErr},
		{"max_var", got.MaxVar, want.MaxVar},
	} {
		if !sameBits(s.got, s.ref) {
			t.Errorf("%s: %s = %v, want %v", label, s.name, float64(s.got), float64(s.ref))
		}
	}
}

// TestConformanceConcurrentLocal: two runs sharing a 4-worker
// in-process fleet, each bit-identical to its isolated counterpart.
func TestConformanceConcurrentLocal(t *testing.T) {
	subs := conformanceSubs()

	m := newManager(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.StartLocalWorkers(ctx, 4, FleetWorkerConfig{})

	var ids []string
	for _, sub := range subs {
		st, err := m.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone, 120*time.Second)
	}
	for i, id := range ids {
		got, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		want := runIsolated(t, subs[i])
		compareReports(t, subs[i].Scenario.Workload+"/local", got, want)
	}
}

// TestConformanceConcurrentTCP: the same contract over the TCP fleet
// transport — gob encoding, resilient clients, real sockets.
func TestConformanceConcurrentTCP(t *testing.T) {
	subs := conformanceSubs()

	m := newManager(t, testConfig(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ServeFleet(ln); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := RunFleetWorker(ctx, ln.Addr().String(), FleetWorkerConfig{
				Retry: cluster.RetryPolicy{BaseDelay: 5 * time.Millisecond, CallTimeout: 10 * time.Second},
			})
			workerDone <- err
		}()
	}

	var ids []string
	for _, sub := range subs {
		st, err := m.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, m, id, StateDone, 120*time.Second)
	}
	for i, id := range ids {
		got, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		want := runIsolated(t, subs[i])
		compareReports(t, subs[i].Scenario.Workload+"/tcp", got, want)
	}

	cancel()
	for i := 0; i < 4; i++ {
		if err := <-workerDone; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
}

// TestConformanceWorkerCountInvariance: 1, 2, and 5 local workers all
// produce the same bits for the same submission.
func TestConformanceWorkerCountInvariance(t *testing.T) {
	sub := Submission{
		Scenario:   workload.Spec{Workload: "option"},
		MaxSamples: 8_000,
		SeqNum:     21,
		PassEvery:  100,
		LeaseSize:  900,
	}
	var ref ReportPayload
	for i, workers := range []int{1, 2, 5} {
		m := newManager(t, testConfig(t))
		ctx, cancel := context.WithCancel(context.Background())
		m.StartLocalWorkers(ctx, workers, FleetWorkerConfig{})
		st, err := m.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone, 120*time.Second)
		rep, err := m.Report(st.ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rep
			continue
		}
		compareReports(t, "option/workers", rep, ref)
	}
}
