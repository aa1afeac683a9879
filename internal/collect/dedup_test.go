package collect_test

import (
	"strings"
	"testing"

	"parmonc/internal/collect"
)

// TestPushSeqExactlyOnceMerge pins the idempotency contract backing the
// cluster transport's at-least-once delivery: a redelivered sequence
// number is acknowledged (nil error — the transport must stop
// retrying) but merged only once, and the redelivery is metered.
func TestPushSeqExactlyOnceMerge(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(1)

	snap := snapOf(t, 1, 2, []float64{1, 2})
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the same delivery, retried
		if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snap); err != nil {
			t.Fatalf("redelivery %d: %v (duplicates must ack, not error)", i, err)
		}
	}
	if got := c.N(); got != 1 {
		t.Fatalf("N = %d after redeliveries, want 1", got)
	}
	m := c.Metrics()
	if m.Merges != 1 || m.Redeliveries != 3 || m.Pushes != 4 {
		t.Fatalf("merges/redeliveries/pushes = %d/%d/%d, want 1/3/4",
			m.Merges, m.Redeliveries, m.Pushes)
	}
	if got := c.LastSeq(1); got != 1 {
		t.Fatalf("LastSeq = %d, want 1", got)
	}

	// A stale sequence number (lower than the high-water mark) is also
	// a duplicate, even if never literally seen: monotonicity is the
	// contract.
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 2}, snapOf(t, 1, 2, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snap); err != nil {
		t.Fatal(err)
	}
	if got := c.N(); got != 2 {
		t.Fatalf("N = %d, want 2 (stale seq must not merge)", got)
	}
}

// TestPushSeqZeroIsUnsequenced: seq 0 is the in-process path and
// always merges — no dedup, no high-water-mark movement.
func TestPushSeqZeroIsUnsequenced(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(1)
	snap := snapOf(t, 1, 2, []float64{1, 2})
	for i := 0; i < 3; i++ {
		if err := c.Push(1, snap); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.N(); got != 3 {
		t.Fatalf("N = %d, want 3 (unsequenced pushes always merge)", got)
	}
	if got := c.LastSeq(1); got != 0 {
		t.Fatalf("LastSeq = %d, want 0", got)
	}
	if m := c.Metrics(); m.Redeliveries != 0 {
		t.Fatalf("redeliveries = %d, want 0", m.Redeliveries)
	}
}

// TestPushSeqIsPerWorker: sequence spaces are independent per worker —
// worker 2's seq 1 is not a duplicate of worker 1's.
func TestPushSeqIsPerWorker(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(1)
	c.Register(2)
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snapOf(t, 1, 2, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := c.PushFrom(collect.PushOrigin{Worker: 2, Seq: 1}, snapOf(t, 1, 2, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if got := c.N(); got != 2 {
		t.Fatalf("N = %d, want 2", got)
	}
	if c.LastSeq(1) != 1 || c.LastSeq(2) != 1 {
		t.Fatalf("LastSeq = %d/%d, want 1/1", c.LastSeq(1), c.LastSeq(2))
	}
}

// TestDeregisterResetsSeq: the processor index of a departed worker can
// be reused by a fresh session whose sequence numbers restart at 1.
func TestDeregisterResetsSeq(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(1)
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 5}, snapOf(t, 1, 2, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister(1); err != nil {
		t.Fatal(err)
	}
	c.Register(1)
	if err := c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snapOf(t, 1, 2, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if got := c.N(); got != 2 {
		t.Fatalf("N = %d, want 2 (fresh session's seq 1 must merge)", got)
	}
}

// TestDuplicateEventAndMetricsRow: redeliveries surface through both
// the event hook and the metrics text dump.
func TestDuplicateEventAndMetricsRow(t *testing.T) {
	var kinds []collect.EventKind
	c, err := collect.New(openDir(t), testMeta(), collect.Config{
		Hook: func(e collect.Event) { kinds = append(kinds, e.Kind) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(1)
	snap := snapOf(t, 1, 2, []float64{1, 2})
	c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snap)
	c.PushFrom(collect.PushOrigin{Worker: 1, Seq: 1}, snap)
	var dup bool
	for _, k := range kinds {
		if k == collect.EventDuplicate {
			dup = true
		}
	}
	if !dup {
		t.Fatalf("no EventDuplicate among %v", kinds)
	}
	if got := collect.EventDuplicate.String(); got != "duplicate" {
		t.Fatalf("EventDuplicate.String() = %q", got)
	}

	c.NoteTransport(7, 3)
	var sb strings.Builder
	if _, err := c.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"redeliveries", "worker_retries", "worker_reconnects"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, sb.String())
		}
	}
	m := c.Metrics()
	if m.WorkerRetries != 7 || m.WorkerReconnects != 3 {
		t.Fatalf("transport counters = %d/%d, want 7/3", m.WorkerRetries, m.WorkerReconnects)
	}
}
