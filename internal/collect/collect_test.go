package collect_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

func testMeta() store.RunMeta {
	return store.RunMeta{
		SeqNum:    1,
		Nrow:      1,
		Ncol:      2,
		MaxSV:     100,
		Workers:   2,
		Params:    rng.DefaultParams(),
		Gamma:     stat.DefaultConfidenceCoefficient,
		StartedAt: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
	}
}

// snapOf builds a subtotal snapshot holding the given realizations.
func snapOf(t *testing.T, nrow, ncol int, realizations ...[]float64) stat.Snapshot {
	t.Helper()
	a := stat.New(nrow, ncol)
	for _, r := range realizations {
		if err := a.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return a.Snapshot()
}

func openDir(t *testing.T) *store.Dir {
	t.Helper()
	d, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLifecycleAndMetrics(t *testing.T) {
	dir := openDir(t)
	var saves []collect.Progress
	c, err := collect.New(dir, testMeta(), collect.Config{
		SaveWorkerSnapshots: true,
		OnSave:              func(p collect.Progress) { saves = append(saves, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	c.Register(1)
	c.Register(1) // re-registration must not double-count
	if got := c.Active(); got != 2 {
		t.Fatalf("Active = %d, want 2", got)
	}

	if err := c.Push(0, snapOf(t, 1, 2, []float64{1, 2}, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(1, snapOf(t, 1, 2, []float64{5, 6})); err != nil {
		t.Fatal(err)
	}
	if got := c.N(); got != 3 {
		t.Fatalf("N = %d, want 3", got)
	}

	rep, err := c.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 3 || rep.MeanAt(0, 0) != 3 || rep.MeanAt(0, 1) != 4 {
		t.Fatalf("bad report: N=%d means=%v", rep.N, rep.Mean)
	}
	if len(saves) != 1 || saves[0].N != 3 {
		t.Fatalf("OnSave calls = %+v, want one with N=3", saves)
	}

	m := c.Metrics()
	if m.Pushes != 2 || m.Merges != 2 || m.RejectedSnapshots != 0 {
		t.Fatalf("push/merge/reject = %d/%d/%d", m.Pushes, m.Merges, m.RejectedSnapshots)
	}
	if m.Saves != 1 || m.WorkerSnapshots != 2 || m.RegisteredWorkers != 2 {
		t.Fatalf("saves/workerSnaps/registered = %d/%d/%d", m.Saves, m.WorkerSnapshots, m.RegisteredWorkers)
	}

	// Everything the lifecycle promises on disk must be there.
	snap, _, err := dir.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != 3 {
		t.Fatalf("checkpoint N = %d, want 3", snap.N)
	}
	if img, err := dir.LoadImage(); err != nil || img.Base.N != 0 || len(img.Shards) != 2 {
		t.Fatalf("run image: base N = %d, %d shards, err %v; want an empty base and 2 shards", img.Base.N, len(img.Shards), err)
	}
	if snaps, _, err := dir.LoadWorkerSnapshots(); err != nil || len(snaps) != 2 {
		t.Fatalf("worker snapshots: %d, %v", len(snaps), err)
	}
}

func TestPushRejections(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	if err := c.Push(0, snapOf(t, 1, 2, []float64{1, 1})); err != nil {
		t.Fatal(err)
	}

	// Unknown worker.
	if err := c.Push(7, snapOf(t, 1, 2, []float64{9, 9})); err == nil ||
		!strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("unknown worker push: %v", err)
	}
	// Wrong dimensions.
	if err := c.Push(0, snapOf(t, 2, 2, []float64{1, 1, 1, 1})); err == nil {
		t.Fatal("wrong-dimension push accepted")
	}
	// Internally inconsistent snapshot.
	bad := snapOf(t, 1, 2, []float64{1, 1})
	bad.Sum = bad.Sum[:1]
	if err := c.Push(0, bad); err == nil {
		t.Fatal("malformed push accepted")
	}

	// None of the rejects may have touched the totals.
	if got := c.N(); got != 1 {
		t.Fatalf("N = %d after rejects, want 1", got)
	}
	m := c.Metrics()
	if m.Pushes != 4 || m.Merges != 1 || m.RejectedSnapshots != 3 {
		t.Fatalf("push/merge/reject = %d/%d/%d, want 4/1/3", m.Pushes, m.Merges, m.RejectedSnapshots)
	}
}

func TestHookEvents(t *testing.T) {
	var events []collect.Event
	c, err := collect.New(openDir(t), testMeta(), collect.Config{
		Hook: func(e collect.Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(3)
	if err := c.Push(3, snapOf(t, 1, 2, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	c.Push(9, snapOf(t, 1, 2, []float64{1, 2})) // rejected
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind.String())
	}
	want := "push merge push reject save"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("event sequence %q, want %q", got, want)
	}
	if events[1].Worker != 3 || events[1].Samples != 1 {
		t.Fatalf("merge event = %+v", events[1])
	}
}

func TestStableMomentsMatchesRaw(t *testing.T) {
	push := func(c *collect.Collector) stat.Report {
		c.Register(0)
		for i := 0; i < 50; i++ {
			v := 1e6 + float64(i)*1e-3 // offset data: raw sums lose precision here
			if err := c.Push(0, snapOf(t, 1, 2, []float64{v, -v})); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := c.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	raw, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	stable, err := collect.New(openDir(t), testMeta(), collect.Config{StableMoments: true})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := push(raw), push(stable)
	if r1.N != r2.N {
		t.Fatalf("N %d vs %d", r1.N, r2.N)
	}
	if math.Abs(r1.MeanAt(0, 0)-r2.MeanAt(0, 0)) > 1e-6 {
		t.Fatalf("means diverge: %v vs %v", r1.MeanAt(0, 0), r2.MeanAt(0, 0))
	}
	// The stable path must not produce a negative variance on this data.
	if r2.VarAt(0, 0) < 0 {
		t.Fatalf("stable variance negative: %v", r2.VarAt(0, 0))
	}
}

// pruneOverdue is the supervision step the transports perform: revoke
// every worker silent for longer than age. It returns how many it
// revoked.
func pruneOverdue(c *collect.Collector, age time.Duration) int {
	over := c.Overdue(age)
	for _, w := range over {
		c.RevokeWorker(w)
	}
	return len(over)
}

func TestPruneOverdue(t *testing.T) {
	clock := time.Unix(1000, 0)
	c, err := collect.New(openDir(t), testMeta(), collect.Config{
		Now: func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	c.Register(1)
	clock = clock.Add(30 * time.Second)
	if err := c.Push(0, snapOf(t, 1, 2, []float64{1, 1})); err != nil {
		t.Fatal(err) // refreshes worker 0's liveness
	}
	clock = clock.Add(31 * time.Second)
	if n := pruneOverdue(c, time.Minute); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if c.IsActive(1) || !c.IsActive(0) {
		t.Fatalf("wrong worker pruned: active0=%v active1=%v", c.IsActive(0), c.IsActive(1))
	}
	if m := c.Metrics(); m.PrunedWorkers != 1 {
		t.Fatalf("PrunedWorkers = %d", m.PrunedWorkers)
	}
}

func TestPeriodicSaveUsesInjectedClock(t *testing.T) {
	clock := time.Unix(0, 0)
	c, err := collect.New(openDir(t), testMeta(), collect.Config{
		AverPeriod: 10 * time.Second,
		Now:        func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	for i := 0; i < 5; i++ {
		clock = clock.Add(3 * time.Second)
		if err := c.Push(0, snapOf(t, 1, 2, []float64{1, 1})); err != nil {
			t.Fatal(err)
		}
	}
	// 15 simulated seconds of pushes with a 10 s period: exactly one
	// periodic save (at t=12), none from the earlier pushes.
	if m := c.Metrics(); m.Saves != 1 {
		t.Fatalf("Saves = %d, want 1", m.Saves)
	}
}

func TestInMemoryEngine(t *testing.T) {
	c, err := collect.New(nil, testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	if err := c.Push(0, snapOf(t, 1, 2, []float64{2, 4})); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 1 || rep.MeanAt(0, 0) != 2 {
		t.Fatalf("bad in-memory report: %+v", rep)
	}
	if m := c.Metrics(); m.Saves != 2 {
		t.Fatalf("Saves = %d, want 2", m.Saves)
	}
	// Resume cannot work without a store.
	if _, err := collect.New(nil, testMeta(), collect.Config{Resume: true}); err == nil {
		t.Fatal("resume with nil store accepted")
	}
}

func TestResumePaths(t *testing.T) {
	dir := openDir(t)

	// Nothing to resume from yet.
	meta := testMeta()
	if _, err := collect.New(dir, meta, collect.Config{Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "no previous simulation") {
		t.Fatalf("resume without checkpoint: %v", err)
	}

	// First run: 2 samples.
	c1, err := collect.New(dir, meta, collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c1.Register(0)
	if err := c1.Push(0, snapOf(t, 1, 2, []float64{1, 2}, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Finalize(); err != nil {
		t.Fatal(err)
	}

	// Same SeqNum must be rejected: base random numbers would repeat.
	if _, err := collect.New(dir, meta, collect.Config{Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "different experiments subsequence number") {
		t.Fatalf("same-seqnum resume: %v", err)
	}

	// Dimension change must be rejected.
	bad := meta
	bad.SeqNum = 2
	bad.Ncol = 3
	if _, err := collect.New(dir, bad, collect.Config{Resume: true}); err == nil {
		t.Fatal("dimension-mismatch resume accepted")
	}

	// A valid resume inherits the base volume.
	next := meta
	next.SeqNum = 2
	c2, err := collect.New(dir, next, collect.Config{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if c2.BaseN() != 2 || c2.N() != 2 {
		t.Fatalf("BaseN=%d N=%d, want 2/2", c2.BaseN(), c2.N())
	}
	if m := c2.Metrics(); m.ResumedSamples != 2 {
		t.Fatalf("ResumedSamples = %d", m.ResumedSamples)
	}
	c2.Register(0)
	if err := c2.Push(0, snapOf(t, 1, 2, []float64{5, 6})); err != nil {
		t.Fatal(err)
	}
	rep, err := c2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 3 || rep.MeanAt(0, 0) != 3 {
		t.Fatalf("resumed report N=%d mean=%v", rep.N, rep.MeanAt(0, 0))
	}
}

func TestTargetReached(t *testing.T) {
	meta := testMeta()
	meta.MaxSV = 2
	c, err := collect.New(nil, meta, collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	if c.TargetReached() {
		t.Fatal("target reached before any samples")
	}
	if err := c.Push(0, snapOf(t, 1, 2, []float64{1, 1}, []float64{2, 2})); err != nil {
		t.Fatal(err)
	}
	if !c.TargetReached() {
		t.Fatal("target not detected at MaxSV")
	}

	// MaxSV <= 0 is the endless mode.
	meta.MaxSV = 0
	e, err := collect.New(nil, meta, collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Register(0)
	e.Push(0, snapOf(t, 1, 2, []float64{1, 1}))
	if e.TargetReached() {
		t.Fatal("endless run reported completion")
	}
}

func TestSaveErrorIsSticky(t *testing.T) {
	work := t.TempDir()
	dir, err := store.Open(work)
	if err != nil {
		t.Fatal(err)
	}
	c, err := collect.New(dir, testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	if err := c.Push(0, snapOf(t, 1, 2, []float64{1, 1})); err != nil {
		t.Fatal(err)
	}

	// Break the store: replace the results directory with a file so the
	// next save cannot create its temp file.
	results := filepath.Join(work, store.DataDir, store.ResultsDir)
	if err := os.RemoveAll(results); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(results, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err == nil {
		t.Fatal("save against broken store succeeded")
	}

	if m := c.Metrics(); m.Saves != 0 {
		t.Fatalf("failed saves counted as successes: %d", m.Saves)
	}

	// Repair the store: Finalize's own save now succeeds, yet it must
	// still report the earlier failure — a partially-persisted run is
	// not trustworthy.
	if err := os.Remove(results); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(results, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finalize(); err == nil {
		t.Fatal("Finalize forgot the earlier save failure")
	}
}

func TestDeregister(t *testing.T) {
	c, err := collect.New(nil, testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	if err := c.Deregister(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister(0); err == nil {
		t.Fatal("double deregister accepted")
	}
	if c.Active() != 0 {
		t.Fatalf("Active = %d", c.Active())
	}
}
