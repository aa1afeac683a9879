package cluster

// Crash-survivability conformance: seeded schedules that kill workers
// mid-run — crash-stop, not graceful detach — must still complete with
// exactly the requested realization count and a final report
// bit-identical to the fault-free in-process reference. The machinery
// under test is the lease ledger + heartbeat supervision: a dead
// worker's lease remainder (the window minus its acked, already-merged
// prefix) is reissued to a survivor, and the dead session's epoch is
// fenced so its zombie retries can never re-merge.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/faultnet"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
)

// crashSpec is the chaos workload with supervision switched on: tight
// heartbeats so dead workers are detected in test time.
func crashSpec() JobSpec {
	spec := chaosSpec()
	spec.Heartbeat = 20 * time.Millisecond
	return spec
}

// doomedWorker speaks the raw worker protocol — register, acquire a
// lease, push a few subtotals — and then goes silent without Done or
// heartbeats: the crash-stop failure the supervision loop exists to
// detect. The session state it leaves behind (epoch, lease, sequence
// number) lets the test replay it later as a zombie.
type doomedWorker struct {
	rc    *ResilientClient
	w     int
	epoch uint64
	seq   uint64
	lease collect.Lease
	done  int64
	local *stat.Accumulator
	spec  JobSpec
}

// runDoomed registers a worker, acquires one lease, completes `pushes`
// subtotal windows of PassEvery realizations each, and goes silent.
// pushes must leave the lease incomplete so there is a remainder to
// reissue.
func runDoomed(t *testing.T, addr, id string, pushes int) *doomedWorker {
	t.Helper()
	ctx := context.Background()
	d := &doomedWorker{rc: NewResilientClient(addr, chaosPolicy(99))}
	t.Cleanup(func() { d.rc.Close() })

	var reg RegisterReply
	if err := d.rc.Call(ctx, ServiceName+".Register", RegisterArgs{ClientID: id}, &reg); err != nil {
		t.Fatal(err)
	}
	d.w, d.epoch, d.spec = reg.Worker, reg.Epoch, reg.Spec

	var aq AcquireReply
	for !aq.Granted {
		if err := d.rc.Call(ctx, ServiceName+".Acquire", AcquireArgs{Worker: d.w, Epoch: d.epoch}, &aq); err != nil {
			t.Fatal(err)
		}
		if aq.Stop || aq.Fenced {
			t.Fatalf("doomed worker %d could not acquire: %+v", d.w, aq)
		}
		if !aq.Granted {
			time.Sleep(5 * time.Millisecond)
		}
	}
	d.lease = aq.Lease
	if int64(pushes)*d.spec.PassEvery >= d.lease.Count {
		t.Fatalf("doomed worker would complete its lease (%d pushes of %d vs count %d)",
			pushes, d.spec.PassEvery, d.lease.Count)
	}

	d.local = stat.New(d.spec.Nrow, d.spec.Ncol)
	stream, err := rng.NewStream(d.spec.Params, rng.Coord{
		Experiment: d.spec.SeqNum, Processor: d.lease.Proc, Realization: d.lease.Start,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, d.spec.Nrow*d.spec.Ncol)
	for p := 0; p < pushes; p++ {
		d.local.Reset()
		for k := int64(0); k < d.spec.PassEvery; k++ {
			if d.done > 0 || k > 0 {
				if err := stream.NextRealization(); err != nil {
					t.Fatal(err)
				}
			}
			if err := chaosRealize(stream, out); err != nil {
				t.Fatal(err)
			}
			if err := d.local.Add(out); err != nil {
				t.Fatal(err)
			}
			d.done++
		}
		d.seq++
		var pr PushReply
		if err := d.rc.Call(ctx, ServiceName+".Push", PushArgs{
			Worker: d.w, Epoch: d.epoch, Seq: d.seq,
			Lease: d.lease.ID, Done: d.done, Snap: d.local.Snapshot(),
		}, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Stop || pr.Fenced {
			t.Fatalf("doomed worker %d push rejected early: %+v", d.w, pr)
		}
	}
	return d // ...and now it goes silent.
}

// zombiePush replays the dead session one more time: a retry of its
// next push under the old epoch, exactly what a half-dead host emits
// when it wakes up after being written off.
func (d *doomedWorker) zombiePush(t *testing.T) PushReply {
	t.Helper()
	snap := snapCrash(t, d.spec, 7)
	var pr PushReply
	if err := d.rc.Call(context.Background(), ServiceName+".Push", PushArgs{
		Worker: d.w, Epoch: d.epoch, Seq: d.seq + 1,
		Lease: d.lease.ID, Done: d.done + snap.N, Snap: snap,
	}, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// snapCrash builds a small poison snapshot: if it ever merged, the
// bit-identity assertions downstream would catch it.
func snapCrash(t *testing.T, spec JobSpec, v float64) stat.Snapshot {
	t.Helper()
	a := stat.New(spec.Nrow, spec.Ncol)
	out := make([]float64, spec.Nrow*spec.Ncol)
	for i := range out {
		out[i] = v
	}
	if err := a.Add(out); err != nil {
		t.Fatal(err)
	}
	return a.Snapshot()
}

// journalKinds reads an events JSONL file back and counts event kinds.
func journalKinds(t *testing.T, path string) map[string]int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range splitLines(raw) {
		var e struct {
			Kind string `json:"event"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		kinds[e.Kind]++
	}
	return kinds
}

func splitLines(raw []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range raw {
		if b == '\n' {
			if i > start {
				lines = append(lines, raw[start:i])
			}
			start = i + 1
		}
	}
	if start < len(raw) {
		lines = append(lines, raw[start:])
	}
	return lines
}

// TestCrashSchedulesBitIdenticalAndReissued is the headline guarantee:
// for each seeded kill schedule (which workers die, and after how many
// acked pushes), the run completes with the exact requested sample
// count, the final report is bit-identical to the fault-free
// reference, the dead workers' lease remainders are observably
// reissued, and a zombie retry of a dead session is fenced out.
func TestCrashSchedulesBitIdenticalAndReissued(t *testing.T) {
	want := chaosReference(t)
	schedules := []struct {
		name   string
		doomed []int // acked pushes before each victim goes silent
	}{
		{"one-dies-at-birth", []int{0}},
		{"one-dies-after-progress", []int{2}},
		{"two-die-staggered", []int{0, 3}},
	}
	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			spec := crashSpec()
			workDir := t.TempDir()
			journalPath := filepath.Join(workDir, "events.jsonl")
			journal, err := obs.OpenJournal(journalPath)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := NewCoordinator(spec, CoordinatorConfig{
				WorkDir:    workDir,
				AverPeriod: time.Hour,
				MissBudget: 3,
				Registry:   obs.NewRegistry(),
				Journal:    journal,
			}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			// The victims register first (one lease each), make their
			// acked progress, and go silent.
			var zombies []*doomedWorker
			for i, pushes := range sc.doomed {
				zombies = append(zombies, runDoomed(t, coord.Addr(),
					fmt.Sprintf("doomed-%d", i), pushes))
			}

			// The survivors join and must absorb everything: their own
			// leases plus the reissued remainders of the dead.
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			survivors := chaosWorkers - len(sc.doomed)
			errCh := make(chan error, survivors)
			for i := 0; i < survivors; i++ {
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
			for i := 0; i < survivors; i++ {
				if err := <-errCh; err != nil {
					t.Fatalf("survivor %d: %v", i, err)
				}
			}
			if ctx.Err() != nil {
				t.Fatal("run completed only via context expiry")
			}

			if rep.N != spec.MaxSamples {
				t.Fatalf("N = %d, want exactly %d despite crashes", rep.N, spec.MaxSamples)
			}
			assertBitIdentical(t, sc.name, rep, want)

			st := coord.Status()
			if st.LeasesReissued < int64(len(sc.doomed)) {
				t.Errorf("LeasesReissued = %d, want >= %d", st.LeasesReissued, len(sc.doomed))
			}
			if st.Metrics.PrunedWorkers != int64(len(sc.doomed)) {
				t.Errorf("PrunedWorkers = %d, want %d", st.Metrics.PrunedWorkers, len(sc.doomed))
			}
			if st.HeartbeatMisses == 0 {
				t.Error("supervision never recorded a heartbeat miss for the silent workers")
			}

			// The zombies wake up and retry their dead sessions: every
			// retry must be acknowledged-but-fenced, never merged (the
			// bit-identity above already proves nothing leaked in).
			for i, z := range zombies {
				pr := z.zombiePush(t)
				if !pr.Fenced {
					t.Errorf("zombie %d push not fenced: %+v", i, pr)
				}
			}
			if got := coord.Status().Metrics.StaleEpochPushes; got < int64(len(zombies)) {
				t.Errorf("StaleEpochPushes = %d, want >= %d", got, len(zombies))
			}

			// The journal must tell the whole story: grants, the misses
			// that condemned the victims, and the reissues that saved
			// the run.
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			kinds := journalKinds(t, journalPath)
			for _, k := range []string{"lease_grant", "heartbeat_miss", "lease_reissue", "stale_epoch"} {
				if kinds[k] == 0 {
					t.Errorf("journal has no %q events: %v", k, kinds)
				}
			}
		})
	}
}

// TestKillFaultSchedulesBitIdentical drives real resilient workers
// through RST-style connection kills (faultnet's crash-stop fault):
// whether a worker reconnects in time or is pruned, re-registers and
// is fenced onto a fresh epoch, the statistics must stay bit-identical
// and the sample count exact.
func TestKillFaultSchedulesBitIdentical(t *testing.T) {
	want := chaosReference(t)
	// Same values as the reference (coordinate-addressed), but slow
	// enough (~2ms per realization → ~200ms per lease) that the kill
	// fuses below fire while the workers are mid-lease.
	slowChaos := func(int) (core.Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			time.Sleep(2 * time.Millisecond)
			return chaosRealize(src, out)
		}, nil
	}
	var disrupted int64
	for _, fuse := range []time.Duration{60 * time.Millisecond, 120 * time.Millisecond} {
		fuse := fuse
		t.Run(fuse.String(), func(t *testing.T) {
			spec := crashSpec()
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			coord, err := NewCoordinatorOn(spec, CoordinatorConfig{
				WorkDir:    t.TempDir(),
				AverPeriod: time.Hour,
				MissBudget: 3,
			}, faultnet.Wrap(raw, faultnet.FaultFirst(
				faultnet.ConnPlan{KillAfter: fuse},
				faultnet.ConnPlan{KillAfter: 2 * fuse},
			)))
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
						WorkerConfig{Retry: chaosPolicy(int64(i) + 1)}, slowChaos)
					errCh <- err
				}(i)
			}
			rep, err := coord.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < chaosWorkers; i++ {
				if err := <-errCh; err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			if rep.N != spec.MaxSamples {
				t.Fatalf("N = %d, want exactly %d", rep.N, spec.MaxSamples)
			}
			assertBitIdentical(t, "kill-fault", rep, want)
			m := coord.Status().Metrics
			disrupted += m.WorkerRetries + m.WorkerReconnects + m.Redeliveries + m.StaleEpochPushes
		})
	}
	if disrupted == 0 {
		t.Error("no schedule disrupted a connection; the kill fuses fired after the run ended")
	}
}

// TestSlowWorkerNotPruned: a worker whose realizations are far slower
// than the miss budget must stay alive through explicit heartbeats —
// slowness is not death, and pruning it would waste its work.
func TestSlowWorkerNotPruned(t *testing.T) {
	spec := JobSpec{
		Nrow: 1, Ncol: 1,
		MaxSamples: 20,
		Params:     rng.DefaultParams(),
		Gamma:      3,
		PassEvery:  10,
		LeaseSize:  10,
		Heartbeat:  15 * time.Millisecond, // miss budget 3 → 45ms to live
	}
	coord, err := NewCoordinator(spec, CoordinatorConfig{
		WorkDir:    t.TempDir(),
		AverPeriod: time.Hour,
		MissBudget: 3,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Each realization takes 10ms, so a push window takes ~100ms —
	// more than twice the 45ms miss budget. Only the heartbeat
	// goroutine keeps this worker alive.
	slowFactory := func(int) (core.Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			time.Sleep(10 * time.Millisecond)
			out[0] = src.Float64()
			return nil
		}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunWorker(ctx, coord.Addr(), WorkerConfig{Retry: chaosPolicy(1)}, slowFactory)
	if err != nil {
		t.Fatal(err)
	}
	final, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.N != spec.MaxSamples {
		t.Fatalf("N = %d, want %d", final.N, spec.MaxSamples)
	}
	if rep.Realizations != spec.MaxSamples {
		t.Fatalf("worker computed %d realizations, want %d", rep.Realizations, spec.MaxSamples)
	}
	st := coord.Status()
	if st.Metrics.PrunedWorkers != 0 {
		t.Fatalf("slow-but-alive worker was pruned %d times", st.Metrics.PrunedWorkers)
	}
	if st.Heartbeats == 0 {
		t.Fatal("no explicit heartbeats observed; the liveness proof never ran")
	}
}

// TestKilledWorkerDetectedWithinBudget bounds the detection latency:
// a worker that goes silent holding a lease must be pruned within the
// miss budget plus supervision-tick slack, not eventually.
func TestKilledWorkerDetectedWithinBudget(t *testing.T) {
	spec := crashSpec() // 20ms heartbeat, miss budget 3 → 60ms to live
	coord, err := NewCoordinator(spec, CoordinatorConfig{
		WorkDir:    t.TempDir(),
		AverPeriod: time.Hour,
		MissBudget: 3,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	runDoomed(t, coord.Addr(), "doomed-detect", 1)
	silentAt := time.Now()

	budget := time.Duration(3) * spec.Heartbeat
	// Generous scheduling slack on top of the contractual bound: the
	// supervision tick granularity adds up to one heartbeat, and a
	// loaded CI machine adds noise — but detection in, say, seconds
	// would mean the budget is not being enforced.
	deadline := time.After(budget + 20*spec.Heartbeat)
	for coord.Status().Metrics.PrunedWorkers == 0 {
		select {
		case <-deadline:
			t.Fatalf("silent worker not pruned within %v (budget %v)", budget+20*spec.Heartbeat, budget)
		case <-time.After(2 * time.Millisecond):
		}
	}
	detection := time.Since(silentAt)
	t.Logf("silent worker pruned after %v (budget %v)", detection, budget)
	st := coord.Status()
	if st.LeasesReissued == 0 {
		t.Fatal("pruned worker's lease was not reissued")
	}
	if st.LeasesPending == 0 {
		t.Fatal("reissued remainder did not land back in the pending queue")
	}
}
