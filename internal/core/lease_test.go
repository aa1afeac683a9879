package core_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

// everyStep is the step of a caller that never exchanges and never
// stops.
func everyStep(int64, time.Duration) (bool, error) { return true, nil }

// TestRunLeaseVisitsItsWindow: RunLease simulates exactly Count
// realizations, realization k on the substream at coordinate
// (seqNum, Proc, Start+k), each into a zeroed buffer, and reports each
// to step in order.
func TestRunLeaseVisitsItsWindow(t *testing.T) {
	params := rng.DefaultParams()
	const seqNum = 3
	l := collect.Lease{ID: 9, Proc: 5, Start: 17, Count: 6}

	var draws []float64
	realize := func(src *rng.Stream, out []float64) error {
		for i, v := range out {
			if v != 0 {
				t.Errorf("realization %d entered with out[%d] = %g, want a zeroed buffer", len(draws), i, v)
			}
		}
		u := src.Float64()
		draws = append(draws, u)
		out[0], out[1] = u, 1e300 // garbage the next call must not see
		return nil
	}
	local := stat.New(1, 2)
	var steps []int64
	err := core.RunLease(params, seqNum, l, realize, local, func(k int64, elapsed time.Duration) (bool, error) {
		if elapsed < 0 {
			t.Errorf("step %d: negative wall time %v", k, elapsed)
		}
		if local.N() != k+1 {
			t.Errorf("step %d: accumulator holds %d realizations, want %d", k, local.N(), k+1)
		}
		steps = append(steps, k)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	if len(draws) != int(l.Count) {
		t.Fatalf("%d realizations simulated, want %d", len(draws), l.Count)
	}
	for k, got := range draws {
		ref, err := rng.NewStream(params, rng.Coord{Experiment: seqNum, Processor: l.Proc, Realization: l.Start + uint64(k)})
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Float64(); got != want {
			t.Fatalf("realization %d drew %v, want %v — the first number of substream (%d, %d, %d)",
				k, got, want, seqNum, l.Proc, l.Start+uint64(k))
		}
	}
}

// TestRunLeaseStopsWhenTold: a false from step ends the lease before
// the next realization; an error from step ends it with that error.
func TestRunLeaseStopsWhenTold(t *testing.T) {
	calls := 0
	realize := func(src *rng.Stream, out []float64) error {
		calls++
		out[0] = src.Float64()
		return nil
	}
	l := collect.Lease{Proc: 1, Count: math.MaxInt64} // an endless window
	local := stat.New(1, 1)
	err := core.RunLease(rng.DefaultParams(), 0, l, realize, local, func(k int64, _ time.Duration) (bool, error) {
		return k < 2, nil
	})
	if err != nil || calls != 3 || local.N() != 3 {
		t.Fatalf("stop at k=2: err %v, %d calls, N = %d; want nil, 3, 3", err, calls, local.N())
	}

	boom := errors.New("exchange failed")
	err = core.RunLease(rng.DefaultParams(), 0, l, realize, local, func(int64, time.Duration) (bool, error) {
		return true, boom
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("step error: err %v after %d calls; want the step's error after 4", err, calls)
	}
}

// TestRunLeaseFailures: a routine that returns an error or panics ends
// the lease with an error naming the realization's coordinate; the failed
// realization is not accumulated and step is not called for it.
func TestRunLeaseFailures(t *testing.T) {
	cases := []struct {
		name string
		fail func()
		want string
	}{
		{"error", nil, "realization 12 of lease 4: proc 2 realizations [10,15): disk on fire"},
		{"panic", func() { panic("user bug") }, "realization 12 of lease 4: proc 2 realizations [10,15): core: realization panicked: user bug"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			realize := func(src *rng.Stream, out []float64) error {
				if calls++; calls == 3 {
					if tc.fail != nil {
						tc.fail()
					}
					return errors.New("disk on fire")
				}
				return nil
			}
			local := stat.New(1, 1)
			steps := 0
			err := core.RunLease(rng.DefaultParams(), 0, collect.Lease{ID: 4, Proc: 2, Start: 10, Count: 5}, realize, local,
				func(int64, time.Duration) (bool, error) { steps++; return true, nil })
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v\nwant  %s", err, tc.want)
			}
			if steps != 2 || local.N() != 2 {
				t.Fatalf("%d steps, N = %d after failing the third realization; want 2, 2", steps, local.N())
			}
		})
	}

	// A lease that does not fit the RNG hierarchy is refused up front.
	err := core.RunLease(rng.DefaultParams(), 0, collect.Lease{Proc: math.MaxUint64, Count: 1},
		func(*rng.Stream, []float64) error { return nil }, stat.New(1, 1), everyStep)
	if err == nil || !strings.Contains(err.Error(), "rng:") {
		t.Fatalf("out-of-hierarchy lease: err = %v, want an rng capacity error", err)
	}
}

// referenceLease is the realization loop as every transport spelled it
// before RunLease existed — kept here as the reference the shared loop
// is compared against, moment for moment.
func referenceLease(t *testing.T, params rng.Params, seqNum uint64, l collect.Lease, r core.Realization, local *stat.Accumulator) {
	t.Helper()
	stream, err := rng.NewStream(params, rng.Coord{Experiment: seqNum, Processor: l.Proc, Realization: l.Start})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, local.Rows()*local.Cols())
	for k := int64(0); k < l.Count; k++ {
		if k > 0 {
			if err := stream.NextRealization(); err != nil {
				t.Fatal(err)
			}
		}
		for i := range out {
			out[i] = 0
		}
		if err := r(stream, out); err != nil {
			t.Fatal(err)
		}
		if err := local.Add(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunLeaseMatchesReferenceLoop: on a scalar workload (pi) and a
// wide one (a 1×2000 density histogram) the moments RunLease
// accumulates over a lease are bit-identical to the reference loop's.
func TestRunLeaseMatchesReferenceLoop(t *testing.T) {
	cases := []struct {
		workload string
		values   workload.Values
		lease    collect.Lease
	}{
		{"pi", nil, collect.Lease{ID: 1, Proc: 3, Start: 250, Count: 5000}},
		{"density", workload.Values{"bins": 2000}, collect.Lease{ID: 2, Proc: 2, Start: 40, Count: 300}},
	}
	params := rng.DefaultParams()
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			def, err := workload.Lookup(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			values, err := def.Schema.Resolve(tc.values)
			if err != nil {
				t.Fatal(err)
			}
			nrow, ncol := def.Dims(values)
			factory, err := def.Factory(values)
			if err != nil {
				t.Fatal(err)
			}
			build := func() core.Realization {
				r, err := factory.Build(1)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}

			want := stat.New(nrow, ncol)
			referenceLease(t, params, 7, tc.lease, build(), want)
			got := stat.New(nrow, ncol)
			if err := core.RunLease(params, 7, tc.lease, build(), got, everyStep); err != nil {
				t.Fatal(err)
			}
			ws, gs := want.Snapshot(), got.Snapshot()
			// Wall time is the one field that legitimately differs.
			ws.SimTimeNS, gs.SimTimeNS = 0, 0
			if !reflect.DeepEqual(ws, gs) {
				t.Fatalf("%d×%d lease moments differ from the reference loop (N %d vs %d)", nrow, ncol, gs.N, ws.N)
			}
			if gs.N != tc.lease.Count {
				t.Fatalf("N = %d, want %d", gs.N, tc.lease.Count)
			}
		})
	}
}
