package collect_test

import (
	"errors"
	"testing"
	"time"

	"parmonc/internal/collect"
)

func TestPartitionLeases(t *testing.T) {
	cases := []struct {
		max, size int64
		want      []collect.Lease
	}{
		{0, 10, nil},
		{-5, 10, nil},
		{100, 0, nil},
		{100, 100, []collect.Lease{{Proc: 1, Start: 0, Count: 100}}},
		{100, 40, []collect.Lease{
			{Proc: 1, Start: 0, Count: 40},
			{Proc: 2, Start: 0, Count: 40},
			{Proc: 3, Start: 0, Count: 20}, // trailing remainder is short
		}},
		{3, 10, []collect.Lease{{Proc: 1, Start: 0, Count: 3}}},
	}
	for _, tc := range cases {
		got := collect.PartitionLeases(tc.max, tc.size)
		if len(got) != len(tc.want) {
			t.Errorf("PartitionLeases(%d, %d) = %v, want %v", tc.max, tc.size, got, tc.want)
			continue
		}
		var total int64
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("PartitionLeases(%d, %d)[%d] = %v, want %v", tc.max, tc.size, i, got[i], tc.want[i])
			}
			total += got[i].Count
		}
		if tc.max > 0 && tc.size > 0 && total != tc.max {
			t.Errorf("PartitionLeases(%d, %d) covers %d realizations", tc.max, tc.size, total)
		}
	}
}

func TestLeaseRemainder(t *testing.T) {
	l := collect.Lease{ID: 7, Proc: 3, Start: 10, Count: 20}
	r := l.Remainder(5)
	want := collect.Lease{Proc: 3, Start: 15, Count: 15}
	if r != want {
		t.Fatalf("Remainder(5) = %v, want %v (fresh ID stamped at re-grant)", r, want)
	}
	if r := l.Remainder(0); r.Count != 20 || r.Start != 10 {
		t.Fatalf("Remainder(0) = %v, want the full window", r)
	}
	if r := l.Remainder(20); r.Count != 0 {
		t.Fatalf("Remainder(full) = %v, want empty", r)
	}
	if r := l.Remainder(25); r.Count != 0 {
		t.Fatalf("Remainder(overshoot) = %v, want empty", r)
	}
	if r := l.Remainder(-3); r.Count != 20 {
		t.Fatalf("Remainder(negative) = %v, want the full window", r)
	}
}

// TestStaleEpochPushFenced is the regression test for the
// zombie-worker dedup hole: reusing a pruned worker's index used to
// reset the sequence space, so a zombie's retried push (same index,
// low seq) would merge as if it came from the fresh session. With
// epoch fencing the zombie's push is acknowledged (ErrFenced, so the
// transport stops retrying) but never merged, and the rejection is
// counted and journaled.
func TestStaleEpochPushFenced(t *testing.T) {
	var stale int
	c, err := collect.New(openDir(t), testMeta(), collect.Config{
		Hook: func(e collect.Event) {
			if e.Kind == collect.EventStale {
				stale++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Session 1 registers under epoch 1 and merges seq 1.
	c.RegisterEpoch(1, 1)
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 1, Seq: 1},
		snapOf(t, 1, 2, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}

	// The worker goes silent and is pruned; its index is re-admitted as
	// a fresh session under epoch 2, whose sequence space restarts at 1.
	if err := c.Deregister(1); err != nil {
		t.Fatal(err)
	}
	c.RegisterEpoch(1, 2)
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 2, Seq: 1},
		snapOf(t, 1, 2, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}

	// The zombie wakes up and retries its old push under epoch 1 with a
	// seq the fresh session has not used yet. Without the fence this
	// would merge; with it the push is fenced.
	err = c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 1, Seq: 2},
		snapOf(t, 1, 2, []float64{9, 9}))
	if !errors.Is(err, collect.ErrFenced) {
		t.Fatalf("zombie push returned %v, want ErrFenced", err)
	}
	if got := c.N(); got != 2 {
		t.Fatalf("N = %d, want 2 (zombie push must not merge)", got)
	}
	if m := c.Metrics(); m.StaleEpochPushes != 1 {
		t.Fatalf("StaleEpochPushes = %d, want 1", m.StaleEpochPushes)
	}
	if stale != 1 {
		t.Fatalf("EventStale fired %d times, want 1", stale)
	}

	// A fenced-out worker that was pruned entirely is also fenced, not
	// merged, when it pushes with any nonzero epoch.
	if err := c.Deregister(1); err != nil {
		t.Fatal(err)
	}
	err = c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 2, Seq: 5},
		snapOf(t, 1, 2, []float64{9, 9}))
	if !errors.Is(err, collect.ErrFenced) {
		t.Fatalf("pruned-worker push returned %v, want ErrFenced", err)
	}
	if got := c.N(); got != 2 {
		t.Fatalf("N = %d after pruned-worker push, want 2", got)
	}
}

// TestLeaseLedgerTracksMergedPrefix: lease pushes must advance the done
// ledger by exactly the snapshot volume; completion fires the metric
// and the remainder after a revocation is the unmerged tail only.
func TestLeaseLedgerTracksMergedPrefix(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterEpoch(1, 1)
	l := collect.Lease{ID: 1, Proc: 1, Start: 0, Count: 4}
	if err := c.GrantLease(1, l); err != nil {
		t.Fatal(err)
	}

	// done must advance by the snapshot's volume.
	err = c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 1, Seq: 1, Lease: 1, Done: 3},
		snapOf(t, 1, 2, []float64{1, 2}, []float64{3, 4})) // volume 2, claims 3
	if err == nil || errors.Is(err, collect.ErrFenced) {
		t.Fatalf("inconsistent ledger push returned %v, want plain rejection", err)
	}
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 1, Seq: 2, Lease: 1, Done: 2},
		snapOf(t, 1, 2, []float64{1, 2}, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if done, count, ok := c.LeaseProgress(1); !ok || done != 2 || count != 4 {
		t.Fatalf("LeaseProgress = %d/%d/%v, want 2/4/true", done, count, ok)
	}

	// Revoking mid-lease returns only the unmerged tail.
	rem := c.RevokeWorker(1)
	if len(rem) != 1 || rem[0] != (collect.Lease{Proc: 1, Start: 2, Count: 2}) {
		t.Fatalf("remainders = %v, want the unmerged tail [proc 1 start 2 count 2]", rem)
	}

	// A straggling push against the revoked lease is fenced.
	err = c.PushFrom(collect.PushOrigin{Worker: 1, Epoch: 1, Seq: 3, Lease: 1, Done: 4},
		snapOf(t, 1, 2, []float64{5, 6}, []float64{7, 8}))
	if !errors.Is(err, collect.ErrFenced) {
		t.Fatalf("push against revoked lease returned %v, want ErrFenced", err)
	}

	// The reissued remainder completes under a fresh session.
	c.RegisterEpoch(2, 1)
	re := rem[0]
	re.ID = 2
	if err := c.GrantLease(2, re); err != nil {
		t.Fatal(err)
	}
	if err := c.PushFrom(collect.PushOrigin{Worker: 2, Epoch: 1, Seq: 1, Lease: 2, Done: 2},
		snapOf(t, 1, 2, []float64{5, 6}, []float64{7, 8})); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.LeasesCompleted != 1 {
		t.Fatalf("LeasesCompleted = %d, want 1", m.LeasesCompleted)
	}
	if got := c.N(); got != 4 {
		t.Fatalf("N = %d, want 4 (prefix + reissued tail)", got)
	}
}

// TestReclaimLeases: reclaiming revokes the worker's outstanding leases
// and returns their remainders without deregistering it — the
// idempotent-acquire primitive for lost grant replies.
func TestReclaimLeases(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterEpoch(1, 1)
	if err := c.GrantLease(1, collect.Lease{ID: 1, Proc: 1, Count: 10}); err != nil {
		t.Fatal(err)
	}
	rem := c.ReclaimLeases(1)
	if len(rem) != 1 || rem[0].Count != 10 {
		t.Fatalf("remainders = %v, want the full window back", rem)
	}
	if !c.IsActive(1) {
		t.Fatal("reclaim must not deregister the worker")
	}
	if c.Metrics().PrunedWorkers != 0 {
		t.Fatal("reclaim must not count as a prune")
	}
	if rem := c.ReclaimLeases(1); len(rem) != 0 {
		t.Fatalf("second reclaim = %v, want nothing", rem)
	}
}

// TestPruneOverdueMonotonicClock drives liveness through an injected
// monotonic clock: ages are measured on Config.Mono readings only, so a
// wall-clock step (Config.Now jumping hours ahead, as under NTP
// correction) cannot make a healthy worker look stale.
func TestPruneOverdueMonotonicClock(t *testing.T) {
	var mono time.Duration
	wall := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	c, err := collect.New(openDir(t), testMeta(), collect.Config{
		Now:  func() time.Time { return wall },
		Mono: func() time.Duration { return mono },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(1)
	c.Register(2)

	// The wall clock leaps four hours; the monotonic clock has barely
	// moved. Nobody may be pruned.
	wall = wall.Add(4 * time.Hour)
	if n := pruneOverdue(c, time.Minute); n != 0 {
		t.Fatalf("wall-clock jump pruned %d workers", n)
	}
	if got := c.Overdue(time.Minute); len(got) != 0 {
		t.Fatalf("wall-clock jump made %v overdue", got)
	}

	// Worker 2 heartbeats at mono 50s; worker 1 stays silent. At mono
	// 70s with a 60s budget only worker 1 is overdue, then pruned.
	mono = 50 * time.Second
	if err := c.Touch(2, 0); err != nil {
		t.Fatal(err)
	}
	mono = 70 * time.Second
	over := c.Overdue(time.Minute)
	if len(over) != 1 || over[0] != 1 {
		t.Fatalf("Overdue = %v, want [1]", over)
	}
	if n := pruneOverdue(c, time.Minute); n != 1 {
		t.Fatalf("pruned %d workers, want 1", n)
	}
	if c.IsActive(1) || !c.IsActive(2) {
		t.Fatalf("active set wrong after prune: worker1=%v worker2=%v", c.IsActive(1), c.IsActive(2))
	}
}
