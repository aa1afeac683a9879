package runmgr

import (
	"context"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/faultnet"
	"parmonc/internal/obs"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

// recoveryChaosSubs are the runs every kill-restart seed must carry
// across service crashes and still finish bit-identically. They are
// sized to outlast the first kill window (50–300 ms) without -race.
func recoveryChaosSubs() []Submission {
	return []Submission{
		{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 750_000, SeqNum: 61, PassEvery: 100, LeaseSize: 25_000},
		{Scenario: workload.Spec{Workload: "option"}, MaxSamples: 400_000, SeqNum: 62, PassEvery: 100, LeaseSize: 20_000},
	}
}

// TestKillRestartChaos is the headline proof of durable service state:
// the coordinator is killed at random points mid-flight (no drain, no
// final save — exactly a SIGKILL) and restarted against the same data
// root while fleet workers keep hammering the same endpoint through a
// faulty network. Every incarnation recovers from manifests + WAL +
// recovery images; zombie calls carrying a dead incarnation's epoch
// must fence, never double-merge; and the final reports must be
// bit-identical to uninterrupted isolated execution.
func TestKillRestartChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart chaos suite is slow")
	}
	subs := recoveryChaosSubs()
	want := make([]ReportPayload, len(subs))
	for i, sub := range subs {
		want[i] = runIsolated(t, sub)
	}

	var totalStale, totalResumed, totalRetries, totalKills int64
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("", func(t *testing.T) {
			root := t.TempDir()
			rnd := rand.New(rand.NewSource(seed))
			cfg := Config{
				DataRoot:     root,
				AverPeriod:   10 * time.Millisecond,
				LeaseTimeout: 300 * time.Millisecond,
			}

			// The fleet endpoint must survive restarts at the same address
			// so supervised workers reconnect to each new incarnation.
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := raw.Addr().String()

			boot := func(raw net.Listener, incarnation int64) *Manager {
				cfg.Registry = obs.NewRegistry()
				m, err := New(cfg)
				if err != nil {
					t.Fatalf("incarnation %d: %v", incarnation, err)
				}
				ln := faultnet.Wrap(raw, faultnet.RandomPlanner(seed*100+incarnation, 0.8, 128, 4096))
				if err := m.ServeFleet(ln); err != nil {
					t.Fatal(err)
				}
				return m
			}
			m := boot(raw, 0)
			t.Cleanup(func() { m.Close() })

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var retries atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Supervised workers: when a retry budget exhausts — the
					// network bit, or the service was dead between kill and
					// restart — a fresh worker replaces it, carrying no state
					// but possibly racing calls from its predecessor.
					for ctx.Err() == nil {
						wcfg := FleetWorkerConfig{
							Retry: cluster.RetryPolicy{
								MaxAttempts: 8,
								BaseDelay:   2 * time.Millisecond,
								CallTimeout: 2 * time.Second,
								Seed:        seed,
							},
						}
						if os.Getenv("PARMONC_CHAOS_BATCH") == "1" {
							// CI runs the suite a second time with coalesced
							// pushes and short long-polls forced on, so crashes
							// land mid-batch and mid-park too.
							wcfg.PullWait = 250 * time.Millisecond
							wcfg.FlushInterval = 10 * time.Millisecond
							wcfg.MaxBatch = 8
						}
						rep, err := RunFleetWorker(ctx, addr, wcfg)
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

			// Kill-restart loop: let the fleet make some progress, then
			// yank the coordinator and boot a successor on the same root
			// and the same endpoint.
			for kill := int64(1); kill <= 5; kill++ {
				time.Sleep(time.Duration(50+rnd.Intn(250)) * time.Millisecond)
				done := true
				for _, id := range ids {
					st, err := m.Run(id)
					if err != nil {
						t.Fatal(err)
					}
					done = done && st.State.Terminal()
				}
				if done {
					break
				}
				if m.mStale != nil {
					totalStale += m.mStale.Value()
				}
				m.kill()
				totalKills++

				raw = rebind(t, addr)
				m = boot(raw, kill)
				mm := m
				t.Cleanup(func() { mm.Close() })
				info := m.Recovery()
				totalResumed += int64(info.Resumed)
				if info.CleanShutdown {
					t.Error("a killed incarnation read as a clean shutdown")
				}
			}

			for _, id := range ids {
				waitState(t, m, id, StateDone, 120*time.Second)
			}
			for i, id := range ids {
				got, err := m.Report(id)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, subs[i].Scenario.Workload+"/kill-restart", got, want[i])
			}
			if m.mStale != nil {
				totalStale += m.mStale.Value()
			}

			cancel()
			wg.Wait()
			totalRetries += retries.Load()
		})
	}
	// The chaos must actually have bitten, and recovery must actually
	// have carried state across at least one crash — otherwise the suite
	// silently degenerates into the happy path.
	if totalKills == 0 {
		t.Error("no incarnation was ever killed: runs finished before the first kill window")
	}
	if totalResumed == 0 {
		t.Error("no run ever resumed from a recovery image across any seed")
	}
	if totalStale == 0 {
		t.Error("no stale-epoch call was ever fenced across any seed")
	}
	if totalRetries == 0 {
		t.Error("no transport retries across any seed: faults never reached the fleet")
	}
	t.Logf("kill-restart totals: %d kills, %d resumed runs, %d stale-epoch fences, %d transport retries",
		totalKills, totalResumed, totalStale, totalRetries)
}

// rebind re-listens on addr, retrying while the previous incarnation's
// socket drains out of the kernel.
func rebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
