package collect

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Invalid-snapshot rejection: every malformed payload is refused with a
// precise error, counted in both rejected_snapshots and the dedicated
// pushes_invalid metric, and reported as a push_invalid journal event.
// The error texts are part of the operator-facing surface (they end up
// in worker logs on the far side of an RPC), so they are table-tested
// verbatim.

func invalidMeta() store.RunMeta {
	return store.RunMeta{
		SeqNum: 1, Nrow: 1, Ncol: 2, Workers: 1,
		Params: rng.DefaultParams(), Gamma: stat.DefaultConfidenceCoefficient,
		StartedAt: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
	}
}

// validSnap returns a well-formed 1×2 one-realization snapshot.
func validSnap() stat.Snapshot {
	a := stat.New(1, 2)
	if err := a.Add([]float64{1, 2}); err != nil {
		panic(err)
	}
	return a.Snapshot()
}

func TestPushInvalidSnapshotTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*stat.Snapshot)
		wantErr string
	}{
		{
			name:    "nan_sum",
			mutate:  func(s *stat.Snapshot) { s.Sum[1] = math.NaN() },
			wantErr: "stat: snapshot Sum[1] = NaN is not finite",
		},
		{
			name:    "pos_inf_sum",
			mutate:  func(s *stat.Snapshot) { s.Sum[0] = math.Inf(1) },
			wantErr: "stat: snapshot Sum[0] = +Inf is not finite",
		},
		{
			name:    "neg_inf_sum",
			mutate:  func(s *stat.Snapshot) { s.Sum[0] = math.Inf(-1) },
			wantErr: "stat: snapshot Sum[0] = -Inf is not finite",
		},
		{
			name:    "nan_sum2",
			mutate:  func(s *stat.Snapshot) { s.Sum2[0] = math.NaN() },
			wantErr: "stat: snapshot Sum2[0] = NaN is not finite",
		},
		{
			name:    "inf_sum2",
			mutate:  func(s *stat.Snapshot) { s.Sum2[1] = math.Inf(1) },
			wantErr: "stat: snapshot Sum2[1] = +Inf is not finite",
		},
		{
			name:    "negative_sum2",
			mutate:  func(s *stat.Snapshot) { s.Sum2[1] = -4 },
			wantErr: "stat: snapshot Sum2[1] = -4 is negative",
		},
		{
			name:    "negative_volume",
			mutate:  func(s *stat.Snapshot) { s.N = -3 },
			wantErr: "stat: snapshot has negative sample volume -3",
		},
		{
			name:    "negative_sim_time",
			mutate:  func(s *stat.Snapshot) { s.SimTimeNS = -1 },
			wantErr: "stat: snapshot has negative simulation time -1",
		},
		{
			name:    "truncated_slices",
			mutate:  func(s *stat.Snapshot) { s.Sum = s.Sum[:1] },
			wantErr: "stat: snapshot slices have lengths 1/2, want 2",
		},
		{
			name:    "zero_dimensions",
			mutate:  func(s *stat.Snapshot) { s.Ncol = 0 },
			wantErr: "stat: snapshot has invalid dimensions 1×0",
		},
		{
			name: "phantom_moments",
			mutate: func(s *stat.Snapshot) {
				// Claims no samples but carries moment mass — merging it
				// would shift the totals without advancing N.
				s.N = 0
				s.SimTimeNS = 0
			},
			wantErr: "stat: snapshot has zero sample volume but nonzero moment sums (Sum[0] = 1, Sum2[0] = 1)",
		},
		{
			name:    "wrong_dimensions",
			mutate:  func(s *stat.Snapshot) { s.Nrow, s.Ncol = 2, 1 },
			wantErr: "stat: snapshot is 2×1, run is 1×2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var events []Event
			eng, err := New(nil, invalidMeta(), Config{Hook: func(e Event) { events = append(events, e) }})
			if err != nil {
				t.Fatal(err)
			}
			eng.Register(0)

			snap := validSnap()
			tc.mutate(&snap)
			err = eng.Push(0, snap)
			if err == nil {
				t.Fatalf("push of %s snapshot succeeded", tc.name)
			}
			want := "collect: rejecting snapshot from worker 0: " + tc.wantErr
			if err.Error() != want {
				t.Errorf("error text drifted:\n got %q\nwant %q", err.Error(), want)
			}
			m := eng.Metrics()
			if m.RejectedSnapshots != 1 || m.PushesInvalid != 1 || m.Merges != 0 {
				t.Errorf("metrics = rejected %d, invalid %d, merges %d; want 1, 1, 0",
					m.RejectedSnapshots, m.PushesInvalid, m.Merges)
			}
			if eng.N() != 0 {
				t.Errorf("N = %d after rejected push", eng.N())
			}
			var kinds []string
			for _, e := range events {
				kinds = append(kinds, e.Kind.String())
			}
			if got := strings.Join(kinds, " "); got != "push push_invalid" {
				t.Errorf("events = %q, want %q", got, "push push_invalid")
			}

			// A valid push afterwards still merges: rejection is not sticky.
			if err := eng.Push(0, validSnap()); err != nil {
				t.Fatal(err)
			}
			if eng.N() != 1 {
				t.Fatalf("N = %d after valid push", eng.N())
			}
		})
	}
}

// TestPushInvalidDistinctFromOtherRejections: unknown-worker and
// lease-ledger rejections do NOT count as invalid payloads — the
// pushes_invalid series isolates data corruption from membership and
// bookkeeping failures.
func TestPushInvalidDistinctFromOtherRejections(t *testing.T) {
	eng, err := New(nil, invalidMeta(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(7, validSnap()); err == nil {
		t.Fatal("push from unregistered worker succeeded")
	}
	m := eng.Metrics()
	if m.RejectedSnapshots != 1 || m.PushesInvalid != 0 {
		t.Fatalf("metrics = rejected %d, invalid %d; want 1, 0", m.RejectedSnapshots, m.PushesInvalid)
	}
}

// TestPushInvalidJournalEvent: an invalid push flows through JournalHook
// into the run journal as a push_invalid record, while the per-window
// push and merge events reach in-process hooks but not the journal.
func TestPushInvalidJournalEvent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []EventKind // the collector calls hooks synchronously
	eng, err := New(nil, invalidMeta(), Config{Hook: MultiHook(JournalHook(j), func(e Event) {
		hooked = append(hooked, e.Kind)
	})})
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(3)
	if err := eng.Push(3, validSnap()); err != nil {
		t.Fatal(err)
	}
	snap := validSnap()
	snap.Sum[0] = math.NaN()
	if err := eng.Push(3, snap); err == nil {
		t.Fatal("push of NaN snapshot succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Kind   string `json:"event"`
			Worker int    `json:"worker"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if rec.Kind == "push_invalid" && rec.Worker == 3 {
			found = true
		}
		if rec.Kind == "push" || rec.Kind == "merge" {
			t.Errorf("journal has a per-window %q line: %s", rec.Kind, line)
		}
	}
	if !found {
		t.Fatalf("journal has no push_invalid event for worker 3:\n%s", raw)
	}
	want := []EventKind{EventPush, EventMerge, EventPush, EventInvalid}
	if !slices.Equal(hooked, want) {
		t.Errorf("in-process hook saw %v, want %v", hooked, want)
	}
}

// TestValidateFastPathAcceptsOverflowingAggregate: the striped
// aggregate check in Snapshot.Validate may overflow to +Inf on huge but
// finite element values; the element-wise slow path must then accept
// the snapshot (no false rejection).
func TestValidateFastPathAcceptsOverflowingAggregate(t *testing.T) {
	s := stat.Snapshot{
		Nrow: 1, Ncol: 4,
		Sum:  []float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64},
		Sum2: []float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64},
		N:    1,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("finite snapshot rejected: %v", err)
	}
}
