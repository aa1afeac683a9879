package cluster

// Chaos conformance: a distributed TCP run whose network is actively
// misbehaving — connections refused, dropped after byte budgets,
// one-way partitioned, delayed — must produce a final report
// bit-identical to a fault-free in-process run of the same workload.
// The resilience layer (retrying ResilientClient + sequence-number
// dedup in the collector) is what makes that possible: delivery is
// at-least-once, merging exactly-once, so the multiset of merged
// snapshots is independent of the fault schedule. This is the guard
// against Lubachevsky's parallel-delivery failure mode: results that
// silently depend on how the network happened to behave.
//
// The workload emits small integers, so subtotal sums are exact in
// float64 and the merged totals are independent of merge order — any
// surviving discrepancy is a delivery bug, not floating-point noise.

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/faultnet"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

const (
	chaosWorkers = 4
	chaosQuota   = 100 // realizations per lease (one lease per worker when all live)
	chaosPass    = 25  // PassEvery → 4 pushes per lease
)

// chaosRealize yields integer-valued deterministic realizations: the
// value depends only on the substream coordinates (processor,
// realization, matrix cell), never on which worker executes the lease
// or on scheduling, and sums of these stay exactly representable.
func chaosRealize(src *rng.Stream, out []float64) error {
	c := src.Coord()
	for i := range out {
		out[i] = float64((int(c.Processor)*31 + int(c.Realization)*7 + i*13) % 64)
	}
	return nil
}

func chaosFactory(int) (core.Realization, error) {
	return chaosRealize, nil
}

func chaosSpec() JobSpec {
	return JobSpec{
		Nrow:       2,
		Ncol:       2,
		MaxSamples: chaosWorkers * chaosQuota,
		Params:     rng.DefaultParams(),
		Gamma:      3,
		PassEvery:  chaosPass,
		LeaseSize:  chaosQuota,
	}
}

// chaosReference runs the workload fault-free and in process: it
// enumerates the same lease partition the coordinator hands out and
// simulates every substream window directly against the engine. Since
// realizations are addressed by substream coordinates, this is the
// ground truth any crash/fault schedule must reproduce bit for bit.
func chaosReference(t *testing.T) stat.Report {
	t.Helper()
	spec := chaosSpec()
	dir, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := collect.New(dir, store.RunMeta{
		SeqNum: spec.SeqNum, Nrow: spec.Nrow, Ncol: spec.Ncol,
		MaxSV: spec.MaxSamples, Params: spec.Params, Gamma: spec.Gamma,
		StartedAt: time.Now(),
	}, collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const w = 1
	eng.Register(w)
	local := stat.New(spec.Nrow, spec.Ncol)
	out := make([]float64, spec.Nrow*spec.Ncol)
	for _, l := range collect.PartitionLeases(spec.MaxSamples, spec.LeaseSize) {
		stream, err := rng.NewStream(spec.Params, rng.Coord{
			Experiment: spec.SeqNum, Processor: l.Proc, Realization: l.Start,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < l.Count; k++ {
			if k > 0 {
				if err := stream.NextRealization(); err != nil {
					t.Fatal(err)
				}
			}
			for i := range out {
				out[i] = 0
			}
			if err := chaosRealize(stream, out); err != nil {
				t.Fatal(err)
			}
			if err := local.Add(out); err != nil {
				t.Fatal(err)
			}
			if local.N() >= spec.PassEvery || k == l.Count-1 {
				if err := eng.Push(w, local.Snapshot()); err != nil {
					t.Fatal(err)
				}
				local.Reset()
			}
		}
	}
	if err := eng.Deregister(w); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// chaosPolicy is tuned for fast tests: tight timeouts so partitioned
// calls are declared dead quickly, many cheap retries.
func chaosPolicy(seed int64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 200,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		CallTimeout: 150 * time.Millisecond,
		DialTimeout: 2 * time.Second,
		Seed:        seed,
	}
}

// chaosTCPRun drives the full TCP transport through plan-injected
// faults and returns the final report plus the coordinator metrics.
// Observability is deliberately switched on (registry + journal): the
// bit-identity assertions double as proof that instrumentation never
// perturbs the statistics.
func chaosTCPRun(t *testing.T, plan faultnet.Planner) (stat.Report, collect.MetricsSnapshot) {
	t.Helper()
	spec := chaosSpec()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workDir := t.TempDir()
	journal, err := obs.OpenJournal(filepath.Join(workDir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	coord, err := NewCoordinatorOn(spec, CoordinatorConfig{
		WorkDir:      workDir,
		AverPeriod:   time.Hour, // only the final save matters here
		DrainTimeout: 200 * time.Millisecond,
		Registry:     obs.NewRegistry(),
		Journal:      journal,
	}, faultnet.Wrap(raw, plan))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errCh := make(chan error, chaosWorkers)
	for i := 0; i < chaosWorkers; i++ {
		go func(i int) {
			_, err := RunWorker(ctx, coord.Addr(),
				WorkerConfig{Retry: chaosPolicy(int64(i) + 1)}, chaosFactory)
			errCh <- err
		}(i)
	}
	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chaosWorkers; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("worker survived %d faults poorly: %v", i, err)
		}
	}
	if ctx.Err() != nil {
		t.Fatal("run completed only via context expiry")
	}
	return rep, coord.Status().Metrics
}

// assertBitIdentical compares every deterministic field of two reports
// exactly — no tolerances. (MeanSimTime is wall-clock and excluded.)
func assertBitIdentical(t *testing.T, label string, got, want stat.Report) {
	t.Helper()
	if got.N != want.N {
		t.Errorf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if got.Nrow != want.Nrow || got.Ncol != want.Ncol {
		t.Errorf("%s: dims %dx%d, want %dx%d", label, got.Nrow, got.Ncol, want.Nrow, want.Ncol)
	}
	for i := range want.Mean {
		if got.Mean[i] != want.Mean[i] {
			t.Errorf("%s: Mean[%d] = %v, want %v", label, i, got.Mean[i], want.Mean[i])
		}
		if got.Var[i] != want.Var[i] {
			t.Errorf("%s: Var[%d] = %v, want %v", label, i, got.Var[i], want.Var[i])
		}
		if got.AbsErr[i] != want.AbsErr[i] {
			t.Errorf("%s: AbsErr[%d] = %v, want %v", label, i, got.AbsErr[i], want.AbsErr[i])
		}
		if got.RelErr[i] != want.RelErr[i] {
			t.Errorf("%s: RelErr[%d] = %v, want %v", label, i, got.RelErr[i], want.RelErr[i])
		}
	}
	if got.MaxAbsErr != want.MaxAbsErr || got.MaxRelErr != want.MaxRelErr || got.MaxVar != want.MaxVar {
		t.Errorf("%s: maxima (%v %v %v), want (%v %v %v)", label,
			got.MaxAbsErr, got.MaxRelErr, got.MaxVar, want.MaxAbsErr, want.MaxRelErr, want.MaxVar)
	}
}

func TestChaosFaultFreeTCPBaseline(t *testing.T) {
	// Sanity anchor: with no faults injected the TCP transport already
	// matches the goroutine reference bit for bit.
	want := chaosReference(t)
	got, m := chaosTCPRun(t, faultnet.None)
	assertBitIdentical(t, "fault-free", got, want)
	if m.Merges != chaosWorkers*chaosQuota/chaosPass {
		t.Errorf("merges = %d, want %d", m.Merges, chaosWorkers*chaosQuota/chaosPass)
	}
	if m.Redeliveries != 0 || m.WorkerRetries != 0 {
		t.Errorf("fault-free run reported resilience work: %+v", m)
	}
}

func TestChaosRandomSchedulesBitIdentical(t *testing.T) {
	// Randomized fault schedules, reproducible from their seeds: every
	// schedule must leave the statistics bit-identical to the
	// fault-free reference, and across the schedules the dedup path
	// must actually fire (redeliveries observed), proving the faults
	// reached the delivery machinery rather than being absorbed before
	// it. Which fault lands on a push reply depends on how the workers'
	// connections interleave, so a seed that loses an ack on one run
	// may not on the next; twelve seeds, several of which usually
	// redeliver, make the dedup check reliable.
	want := chaosReference(t)
	var redeliveries, retries int64
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		seed := seed
		t.Run("", func(t *testing.T) {
			got, m := chaosTCPRun(t, faultnet.RandomPlanner(seed, 0.6, 64, 1024))
			assertBitIdentical(t, "chaos", got, want)
			if m.Merges != chaosWorkers*chaosQuota/chaosPass {
				t.Errorf("seed %d: merges = %d, want %d (dedup must keep exactly-once)",
					seed, m.Merges, chaosWorkers*chaosQuota/chaosPass)
			}
			redeliveries += m.Redeliveries
			retries += m.WorkerRetries + m.WorkerReconnects
			t.Logf("seed %d: redeliveries=%d worker_retries=%d reconnects=%d",
				seed, m.Redeliveries, m.WorkerRetries, m.WorkerReconnects)
		})
	}
	if retries == 0 {
		t.Error("no schedule exercised the retry path; raise severity")
	}
	if redeliveries == 0 {
		t.Error("no schedule exercised the dedup path (duplicate-push metric stayed 0)")
	}
}

func TestChaosLostAckSchedulesForceRedelivery(t *testing.T) {
	// Deterministic lost-ack schedules: black-holing the coordinator's
	// replies after a byte budget makes some applied push's ack vanish,
	// so the worker must redeliver and the coordinator must dedup. The
	// budgets sweep the reply stream so at least one lands after
	// registration but before the final ack. Where the push acks sit in
	// that stream depends on how many leases each early connection's
	// worker takes, so the sweep is dense (every 100 bytes) where they
	// usually are.
	want := chaosReference(t)
	var redeliveries int64
	for _, budget := range []int64{300, 500, 600, 700, 800, 900, 1200} {
		got, m := chaosTCPRun(t, faultnet.FaultFirst(
			faultnet.ConnPlan{BlackholeAfterWrite: budget},
			faultnet.ConnPlan{BlackholeAfterWrite: budget},
		))
		assertBitIdentical(t, "lost-ack", got, want)
		redeliveries += m.Redeliveries
	}
	if redeliveries == 0 {
		t.Error("lost-ack schedules produced no redeliveries")
	}
}

func TestPushSeqDedupOverRPC(t *testing.T) {
	// Unit-level proof of idempotent pushes over the wire: the same
	// (worker, seq, snapshot) delivered twice merges once.
	coord, err := NewCoordinator(testSpec(1000), CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	rc := NewResilientClient(coord.Addr(), DefaultRetryPolicy())
	defer rc.Close()
	ctx := context.Background()

	var reg RegisterReply
	if err := rc.Call(ctx, ServiceName+".Register", RegisterArgs{ClientID: "dup-test"}, &reg); err != nil {
		t.Fatal(err)
	}
	acc := stat.New(1, 1)
	if err := acc.Add([]float64{0.25}); err != nil {
		t.Fatal(err)
	}
	l := acquireLease(t, coord, reg)
	args := PushArgs{Worker: reg.Worker, Epoch: reg.Epoch, Seq: 1, Lease: l.ID, Done: 1, Snap: acc.Snapshot()}
	var pr PushReply
	for i := 0; i < 3; i++ { // deliver the identical push three times
		if err := rc.Call(ctx, ServiceName+".Push", args, &pr); err != nil {
			t.Fatal(err)
		}
	}
	if n := coord.N(); n != 1 {
		t.Fatalf("N = %d after redelivered pushes, want 1 (exactly-once merge)", n)
	}
	m := coord.Status().Metrics
	if m.Merges != 1 || m.Redeliveries != 2 {
		t.Fatalf("merges/redeliveries = %d/%d, want 1/2", m.Merges, m.Redeliveries)
	}

	// A retried Register with the same ClientID reclaims the index.
	var reg2 RegisterReply
	if err := rc.Call(ctx, ServiceName+".Register", RegisterArgs{ClientID: "dup-test"}, &reg2); err != nil {
		t.Fatal(err)
	}
	if reg2.Worker != reg.Worker {
		t.Fatalf("idempotent re-register assigned %d, want %d", reg2.Worker, reg.Worker)
	}
}
