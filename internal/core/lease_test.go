package core_test

import (
	"errors"
	"fmt"
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
func everyStep(core.Block) (bool, error) { return true, nil }

// noWindow is the exchange window of a lease with no count cut.
const noWindow = math.MaxInt64

// checkBlocks asserts the block contract over the blocks one lease
// reported: contiguous, positive sizes summing to count, and a cut at
// exactly the window multiples and the lease end — so no block crosses
// a cut.
func checkBlocks(t *testing.T, blocks []core.Block, window, count int64) {
	t.Helper()
	var next int64
	for i, b := range blocks {
		if b.Size < 1 || b.Last != next+b.Size-1 {
			t.Fatalf("block %d: Last %d Size %d, want a non-empty block starting at %d", i, b.Last, b.Size, next)
		}
		if b.Elapsed < 0 {
			t.Fatalf("block %d: negative wall time %v", i, b.Elapsed)
		}
		for k := next; k < b.Last; k++ {
			if (k+1)%window == 0 {
				t.Fatalf("block %d [%d, %d] crosses the window cut after %d", i, next, b.Last, k)
			}
		}
		end := b.Last + 1
		if want := end%window == 0 || end == count; b.Cut != want {
			t.Fatalf("block %d ending at %d: Cut = %v, want %v (window %d, count %d)", i, b.Last, b.Cut, want, window, count)
		}
		next = end
	}
	if next != count {
		t.Fatalf("blocks cover %d realizations, want %d", next, count)
	}
}

// TestRunLeaseVisitsItsWindow: RunLease simulates exactly Count
// realizations, realization k on the substream at coordinate
// (seqNum, Proc, Start+k), each into a zeroed buffer, and reports them
// to step in blocks that cover the lease and are cut exactly at the
// window multiples and the lease end.
func TestRunLeaseVisitsItsWindow(t *testing.T) {
	params := rng.DefaultParams()
	const seqNum, window = 3, 4
	l := collect.Lease{ID: 9, Proc: 5, Start: 17, Count: 30}

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
	var blocks []core.Block
	err := core.RunLease(params, seqNum, l, window, realize, local, func(b core.Block) (bool, error) {
		if local.N() != b.Last+1 {
			t.Errorf("block ending at %d: accumulator holds %d realizations, want %d", b.Last, local.N(), b.Last+1)
		}
		blocks = append(blocks, b)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBlocks(t, blocks, window, l.Count)
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

// TestRunLeaseBlocks drives the block contract over several exchange
// windows and lease lengths: the blocks cover the lease and cut exactly
// at window multiples and the lease end; the accumulator's simulation
// time is the sum of the blocks' wall times; a false or an error from
// step ends the lease at that block; and a routine slower than the
// block target is timed one realization at a time.
func TestRunLeaseBlocks(t *testing.T) {
	fast := func(src *rng.Stream, out []float64) error {
		out[0] = src.Float64()
		return nil
	}
	for _, window := range []int64{1, 3, 7, noWindow} {
		for _, count := range []int64{1, 2, 7, 50, 5000} {
			t.Run(fmt.Sprintf("window=%d/count=%d", window, count), func(t *testing.T) {
				l := collect.Lease{Proc: 2, Start: 11, Count: count}
				local := stat.New(1, 1)
				var blocks []core.Block
				var total time.Duration
				err := core.RunLease(rng.DefaultParams(), 1, l, window, fast, local, func(b core.Block) (bool, error) {
					blocks = append(blocks, b)
					total += b.Elapsed
					return true, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				checkBlocks(t, blocks, window, count)
				if local.N() != count {
					t.Fatalf("N = %d, want %d", local.N(), count)
				}
				if local.SimTime() != total {
					t.Fatalf("SimTime = %v, want the blocks' total wall time %v", local.SimTime(), total)
				}

				// Stop at the middle block, once by a false and once by an
				// error: nothing past that block is simulated.
				stopAt := len(blocks) / 2
				boom := errors.New("exchange failed")
				for _, fail := range []error{nil, boom} {
					calls := 0
					local := stat.New(1, 1)
					counted := func(src *rng.Stream, out []float64) error { calls++; return fast(src, out) }
					var seen []core.Block
					err := core.RunLease(rng.DefaultParams(), 1, l, window, counted, local, func(b core.Block) (bool, error) {
						seen = append(seen, b)
						if len(seen) > stopAt {
							return false, fail
						}
						return true, nil
					})
					if !errors.Is(err, fail) {
						t.Fatalf("step ending the lease with %v: RunLease returned %v", fail, err)
					}
					if len(seen) != stopAt+1 {
						t.Fatalf("step ending the lease with %v at block %d: %d blocks reported", fail, stopAt, len(seen))
					}
					if last := seen[stopAt].Last; local.N() != last+1 || int64(calls) != last+1 {
						t.Fatalf("step ending the lease with %v at block [.., %d]: N = %d after %d calls, want %d of each",
							fail, last, local.N(), calls, last+1)
					}
				}
			})
		}
	}

	t.Run("slow routine", func(t *testing.T) {
		slow := func(src *rng.Stream, out []float64) error {
			time.Sleep(time.Millisecond)
			return fast(src, out)
		}
		var blocks []core.Block
		err := core.RunLease(rng.DefaultParams(), 1, collect.Lease{Proc: 1, Count: 6}, noWindow, slow, stat.New(1, 1),
			func(b core.Block) (bool, error) { blocks = append(blocks, b); return true, nil })
		if err != nil {
			t.Fatal(err)
		}
		checkBlocks(t, blocks, noWindow, 6)
		for i, b := range blocks {
			if b.Size != 1 {
				t.Fatalf("block %d of a 1 ms routine holds %d realizations, want 1", i, b.Size)
			}
		}
	})

	if err := core.RunLease(rng.DefaultParams(), 1, collect.Lease{Proc: 1, Count: 1}, 0, fast, stat.New(1, 1), everyStep); err == nil {
		t.Fatal("window 0: RunLease accepted it")
	}
}

// TestRunLeaseStopsWhenTold: a false from step ends an endless lease at
// that block; an error from step ends it with that error.
func TestRunLeaseStopsWhenTold(t *testing.T) {
	calls := 0
	realize := func(src *rng.Stream, out []float64) error {
		calls++
		out[0] = src.Float64()
		return nil
	}
	l := collect.Lease{Proc: 1, Count: math.MaxInt64} // an endless window
	local := stat.New(1, 1)
	var last int64
	err := core.RunLease(rng.DefaultParams(), 0, l, noWindow, realize, local, func(b core.Block) (bool, error) {
		last = b.Last
		return b.Last < 2, nil
	})
	if err != nil || int64(calls) != last+1 || local.N() != last+1 || last < 2 {
		t.Fatalf("stop once past k=2: err %v, %d calls, N = %d, last block ends at %d; want nil and last+1 ≥ 3 of each",
			err, calls, local.N(), last)
	}

	boom := errors.New("exchange failed")
	calls = 0
	err = core.RunLease(rng.DefaultParams(), 0, l, noWindow, realize, local, func(core.Block) (bool, error) {
		return true, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("step error: err %v after %d calls; want the step's error after the first block, 1 call", err, calls)
	}
}

// TestRunLeaseFailures: a routine that returns an error or panics ends
// the lease with an error naming the realization's coordinate; the failed
// realization is not accumulated, and the ones before it are — and step
// has been told of exactly those, whatever block the failure fell in.
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
			for _, window := range []int64{1, noWindow} {
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
				var stepped int64
				err := core.RunLease(rng.DefaultParams(), 0, collect.Lease{ID: 4, Proc: 2, Start: 10, Count: 5}, window, realize, local,
					func(b core.Block) (bool, error) { stepped += b.Size; return true, nil })
				if err == nil || err.Error() != tc.want {
					t.Fatalf("window %d: err = %v\nwant  %s", window, err, tc.want)
				}
				if local.N() != 2 {
					t.Fatalf("window %d: N = %d after failing the third realization; want 2", window, local.N())
				}
				if stepped != 2 {
					t.Fatalf("window %d: step saw %d realizations before the failure", window, stepped)
				}
			}
		})
	}

	// A lease that does not fit the RNG hierarchy is refused up front.
	err := core.RunLease(rng.DefaultParams(), 0, collect.Lease{Proc: math.MaxUint64, Count: 1}, noWindow,
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
			if err := core.RunLease(params, 7, tc.lease, 7, build(), got, everyStep); err != nil {
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
