package collect_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/stat"
)

// The ownership rule for a pushed snapshot (stat.Snapshot): the sender
// lends it, the collector reads it before Push returns, never writes to
// it and retains nothing. These tests break each half of the rule on
// purpose-built senders and check that no report bit can tell.

// ownershipStep is one push of the script: what the sender accumulated
// since its last push, under which origin, and how the collector must
// answer.
type ownershipStep struct {
	name    string
	origin  collect.PushOrigin
	window  [][]float64 // realizations added to the sender's accumulator
	fenced  bool        // want errors.Is(err, ErrFenced)
	wantErr bool        // want some other error
}

// ownershipScript drives every return of pushShard — merge, duplicate
// Seq, fenced epoch, out-of-range Done, invalid payload, unknown worker,
// lease completion — for fenced worker 1 (epoch 1, lease 7 of six
// realizations) and unfenced worker 0.
func ownershipScript() []ownershipStep {
	w1 := func(seq uint64, done int64) collect.PushOrigin {
		return collect.PushOrigin{Worker: 1, Epoch: 1, Seq: seq, Lease: 7, Done: done}
	}
	return []ownershipStep{
		{name: "merge", origin: w1(1, 2), window: [][]float64{real8(1, 0), real8(1, 1)}},
		{name: "unfenced merge", origin: collect.PushOrigin{Worker: 0}, window: [][]float64{real8(0, 0)}},
		{name: "merge again", origin: w1(2, 3), window: [][]float64{real8(1, 2)}},
		{name: "duplicate seq", origin: w1(2, 3), window: [][]float64{real8(9, 9)}},
		{name: "stale epoch", origin: collect.PushOrigin{Worker: 1, Epoch: 9, Seq: 3, Lease: 7, Done: 4},
			window: [][]float64{real8(9, 8)}, fenced: true},
		{name: "done out of range", origin: w1(3, 6), window: [][]float64{real8(9, 7)}, wantErr: true},
		{name: "invalid payload", origin: w1(3, 4), window: [][]float64{{math.NaN(), 1}}, wantErr: true},
		{name: "unknown worker", origin: collect.PushOrigin{Worker: 5}, window: [][]float64{real8(9, 6)}, wantErr: true},
		{name: "unfenced merge again", origin: collect.PushOrigin{Worker: 0}, window: [][]float64{real8(0, 1), real8(0, 2)}},
		{name: "lease completes", origin: w1(3, 6), window: [][]float64{real8(1, 3), real8(1, 4), real8(1, 5)}},
	}
}

// snapBits is a bit-exact copy of a snapshot's contents.
func snapBits(s stat.Snapshot) []uint64 {
	out := []uint64{uint64(s.Nrow), uint64(s.Ncol), uint64(s.N), uint64(s.SimTimeNS)}
	for _, v := range s.Sum {
		out = append(out, math.Float64bits(v))
	}
	for _, v := range s.Sum2 {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// ownershipOutcome is everything a sender's conduct could have moved.
type ownershipOutcome struct {
	report  stat.Report
	manaver stat.Report // post-mortem average of the worker snapshot files; zero without them
	events  []string
	metrics collect.MetricsSnapshot
}

// runOwnershipScript plays the script against a fresh collector. With
// lend set the sender pushes a View of its live accumulator, checks the
// push left the storage bit-unchanged, and then scribbles over it (what
// a worker's next realizations do); otherwise it pushes a deep copy and
// never touches it again — the reference.
func runOwnershipScript(t *testing.T, cfg collect.Config, hook bool, lend bool) ownershipOutcome {
	t.Helper()
	var out ownershipOutcome
	if hook {
		cfg.Hook = func(e collect.Event) {
			out.events = append(out.events, fmt.Sprintf("%v w%d n%d seq%d", e.Kind, e.Worker, e.Samples, e.Seq))
		}
	}
	// Every push finds a periodic save due, so the save path runs while
	// the sender is mid-script too.
	clock := time.Date(2026, 9, 1, 0, 0, 0, 0, time.UTC)
	cfg.AverPeriod = time.Second
	cfg.Now = func() time.Time { clock = clock.Add(2 * time.Second); return clock }
	dir := openDir(t)
	c, err := collect.New(dir, testMeta(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Register(0)
	c.RegisterEpoch(1, 1)
	if err := c.GrantLease(1, collect.Lease{ID: 7, Proc: 1, Count: 6}); err != nil {
		t.Fatal(err)
	}

	senders := map[int]*stat.Accumulator{}
	for _, st := range ownershipScript() {
		local := senders[st.origin.Worker]
		if local == nil {
			local = stat.New(1, 2)
			senders[st.origin.Worker] = local
		}
		for _, r := range st.window {
			if err := local.AddTimed(r, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		var perr error
		if lend {
			v := local.View()
			before := snapBits(v)
			perr = c.PushFrom(st.origin, v)
			if !slices.Equal(snapBits(local.View()), before) {
				t.Errorf("%s: the push wrote to the storage it borrowed", st.name)
			}
			for i := range v.Sum {
				v.Sum[i], v.Sum2[i] = math.NaN(), -1
			}
		} else {
			perr = c.PushFrom(st.origin, local.Snapshot())
		}
		local.Reset()
		switch {
		case st.fenced && !errors.Is(perr, collect.ErrFenced):
			t.Fatalf("%s: push returned %v, want ErrFenced", st.name, perr)
		case st.wantErr && (perr == nil || errors.Is(perr, collect.ErrFenced)):
			t.Fatalf("%s: push returned %v, want a rejection", st.name, perr)
		case !st.fenced && !st.wantErr && perr != nil:
			t.Fatalf("%s: push returned %v", st.name, perr)
		}
	}
	if out.report, err = c.Finalize(); err != nil {
		t.Fatal(err)
	}
	out.metrics = c.Metrics()
	if cfg.SaveWorkerSnapshots {
		if out.manaver, err = collect.Manaver(dir.Root()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPushOwnershipBorrowedViewEqualsDeepCopy: a sender that lends its
// live storage and overwrites it the moment Push returns must leave
// exactly the report, worker snapshot files, events and counters of a
// sender that hands over deep copies — in raw and StableMoments
// accumulation, with and without SaveWorkerSnapshots, with and without
// a Hook, across every way a push can return.
func TestPushOwnershipBorrowedViewEqualsDeepCopy(t *testing.T) {
	for _, stable := range []bool{false, true} {
		for _, wsnap := range []bool{false, true} {
			for _, hook := range []bool{false, true} {
				name := fmt.Sprintf("stable=%v/workersnaps=%v/hook=%v", stable, wsnap, hook)
				t.Run(name, func(t *testing.T) {
					cfg := collect.Config{StableMoments: stable, SaveWorkerSnapshots: wsnap}
					want := runOwnershipScript(t, cfg, hook, false)
					got := runOwnershipScript(t, cfg, hook, true)
					if want.report.N != 9 {
						t.Fatalf("reference merged N = %d, want 9 (script drifted)", want.report.N)
					}
					bitIdentical(t, got.report, want.report)
					if wsnap {
						if want.manaver.N != 9 {
							t.Fatalf("reference manaver N = %d, want 9", want.manaver.N)
						}
						bitIdentical(t, got.manaver, want.manaver)
					}
					if !slices.Equal(got.events, want.events) {
						t.Errorf("hook events differ:\n got %v\nwant %v", got.events, want.events)
					}
					if hook && len(want.events) == 0 {
						t.Error("hook installed but saw no events")
					}
					// The injected clock makes even the save latency equal.
					if got.metrics != want.metrics {
						t.Errorf("counters differ:\n got %+v\nwant %+v", got.metrics, want.metrics)
					}
					if m := want.metrics; m.Merges != 5 || m.Redeliveries != 1 || m.StaleEpochPushes != 1 ||
						m.PushesInvalid != 1 || m.RejectedSnapshots != 3 || m.LeasesCompleted != 1 {
						t.Errorf("the script no longer takes every return of pushShard: %+v", m)
					}
				})
			}
		}
	}
}
