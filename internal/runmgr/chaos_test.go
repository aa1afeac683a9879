package runmgr

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/faultnet"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

// chaosSubs are the survivor runs every chaos seed must complete with
// bit-identical reports; the third submission is canceled mid-flight
// to exercise fencing under faults.
func chaosSubs() []Submission {
	return []Submission{
		{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 10_000, SeqNum: 41, PassEvery: 100, LeaseSize: 1_000},
		{Scenario: workload.Spec{Workload: "option"}, MaxSamples: 5_000, SeqNum: 42, PassEvery: 100, LeaseSize: 700},
	}
}

// TestRunMgrChaos: the multi-run service under a faulty network. Fleet
// connections are wrapped in seeded faultnet chaos (refused dials,
// latency, byte-budget closes, one-way partitions); workers are
// supervised — when one's retry budget exhausts it is restarted, like
// a crashed process respawning. The survivor runs must still complete
// with reports bit-identical to fault-free isolated execution:
// at-least-once delivery plus sequence dedup plus lease fencing must
// turn every redelivery, reissue and zombie push into exactly-once
// merges.
func TestRunMgrChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is slow")
	}
	subs := chaosSubs()
	want := make([]ReportPayload, len(subs))
	for i, sub := range subs {
		want[i] = runIsolated(t, sub)
	}

	var totalRetries, totalReissues int64
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("", func(t *testing.T) {
			cfg := testConfig(t)
			cfg.LeaseTimeout = 300 * time.Millisecond
			m := newManager(t, cfg)

			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := faultnet.Wrap(raw, faultnet.RandomPlanner(seed, 0.8, 128, 4096))
			if err := m.ServeFleet(ln); err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var retries atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Supervise: a worker whose retry budget exhausts is
					// replaced by a fresh one, as a process supervisor
					// would. Its leases reissue via the timeout reaper.
					for ctx.Err() == nil {
						rep, err := RunFleetWorker(ctx, raw.Addr().String(), FleetWorkerConfig{
							Retry: cluster.RetryPolicy{
								MaxAttempts: 6,
								BaseDelay:   2 * time.Millisecond,
								CallTimeout: 2 * time.Second,
								Seed:        seed,
							},
						})
						retries.Add(rep.Retries)
						if err == nil {
							return
						}
					}
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
			// A third run is canceled while the fleet is mid-fault:
			// fencing must hold even when the cancel races reissues.
			victim, err := m.Submit(Submission{
				Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 4_000_000,
				SeqNum: 43, PassEvery: 20_000, LeaseSize: 1_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond)
			if _, err := m.Cancel(victim.ID); err != nil {
				t.Fatal(err)
			}

			for _, id := range ids {
				waitState(t, m, id, StateDone, 120*time.Second)
			}
			for i, id := range ids {
				got, err := m.Report(id)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, subs[i].Scenario.Workload+"/chaos", got, want[i])
			}
			vs, _ := m.Run(victim.ID)
			if vs.State != StateCanceled || vs.Leases.Outstanding != 0 {
				t.Fatalf("victim: state %s, %d outstanding", vs.State, vs.Leases.Outstanding)
			}
			for _, id := range ids {
				st, _ := m.Run(id)
				totalReissues += st.Leases.Reissued
			}

			cancel()
			wg.Wait()
			totalRetries += retries.Load()
		})
	}
	// Across all seeds the chaos must actually have bitten — otherwise
	// the suite silently degenerates into the happy path.
	if totalRetries == 0 {
		t.Error("no transport retries across any seed: faults never reached the fleet")
	}
	t.Logf("chaos totals: %d transport retries, %d lease reissues", totalRetries, totalReissues)
}
