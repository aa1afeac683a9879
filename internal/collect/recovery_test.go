package collect_test

import (
	"errors"
	"math"
	"testing"

	"parmonc/internal/collect"
	"parmonc/internal/stat"
)

// real8 is a deterministic "realization" for lease proc p at absolute
// position i — the same inputs the interrupted and uninterrupted runs
// both feed the collector.
func real8(p int, i uint64) []float64 {
	x := float64(p)*100 + float64(i)
	return []float64{x / 7, math.Sqrt(x + 1)}
}

func bitIdentical(t *testing.T, got, want stat.Report) {
	t.Helper()
	if got.N != want.N || got.Nrow != want.Nrow || got.Ncol != want.Ncol {
		t.Fatalf("shape/N: got %dx%d N=%d, want %dx%d N=%d",
			got.Nrow, got.Ncol, got.N, want.Nrow, want.Ncol, want.N)
	}
	mats := []struct {
		name     string
		got, ref []float64
	}{
		{"mean", got.Mean, want.Mean},
		{"var", got.Var, want.Var},
		{"abs_err", got.AbsErr, want.AbsErr},
		{"rel_err", got.RelErr, want.RelErr},
	}
	for _, m := range mats {
		for i := range m.ref {
			if math.Float64bits(m.got[i]) != math.Float64bits(m.ref[i]) {
				t.Errorf("%s[%d] = %v (bits %x), want %v (bits %x)", m.name, i,
					m.got[i], math.Float64bits(m.got[i]), m.ref[i], math.Float64bits(m.ref[i]))
			}
		}
	}
	if math.Float64bits(got.MaxAbsErr) != math.Float64bits(want.MaxAbsErr) ||
		math.Float64bits(got.MaxRelErr) != math.Float64bits(want.MaxRelErr) ||
		math.Float64bits(got.MaxVar) != math.Float64bits(want.MaxVar) {
		t.Errorf("max errors differ: got %v/%v/%v want %v/%v/%v",
			got.MaxAbsErr, got.MaxRelErr, got.MaxVar,
			want.MaxAbsErr, want.MaxRelErr, want.MaxVar)
	}
}

// TestRecoveryRoundTripBitIdentical is the collect-layer contract the
// service's crash recovery rests on: capturing the run image mid-run,
// restoring it into a fresh collector, and replaying only the
// unmerged lease remainders yields a final report bit-identical to the
// uninterrupted run's. The folded checkpoint could never provide this
// (float addition is not associative); the per-shard image must.
func TestRecoveryRoundTripBitIdentical(t *testing.T) {
	leases := []collect.Lease{
		{ID: 1, Proc: 1, Start: 0, Count: 4},
		{ID: 2, Proc: 2, Start: 0, Count: 4},
	}
	// One lease per worker; each worker pushes its window in two halves,
	// interleaved across workers exactly as the fleet would.
	// from/to are absolute stream positions; the lease ledger's Done
	// cursor is lease-local, hence the leaseStart argument.
	push := func(t *testing.T, c *collect.Collector, w int, epoch, seq, leaseID uint64, proc int, leaseStart, from, to uint64) {
		t.Helper()
		var rs [][]float64
		for i := from; i < to; i++ {
			rs = append(rs, real8(proc, i))
		}
		err := c.PushFrom(collect.PushOrigin{
			Worker: w, Epoch: epoch, Seq: seq, Lease: leaseID, Done: int64(to - leaseStart),
		}, snapOf(t, 1, 2, rs...))
		if err != nil {
			t.Fatal(err)
		}
	}

	// Uninterrupted baseline.
	base, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base.RegisterEpoch(1, 1)
	base.RegisterEpoch(2, 1)
	for i, l := range leases {
		if err := base.GrantLease(i+1, l); err != nil {
			t.Fatal(err)
		}
	}
	push(t, base, 1, 1, 1, 1, 1, 0, 0, 2)
	push(t, base, 2, 1, 1, 2, 2, 0, 0, 2)
	push(t, base, 1, 1, 2, 1, 1, 0, 2, 4)
	push(t, base, 2, 1, 2, 2, 2, 0, 2, 4)
	want, err := base.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: crash after the first half of each lease.
	crashed, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	crashed.RegisterEpoch(1, 1)
	crashed.RegisterEpoch(2, 1)
	for i, l := range leases {
		if err := crashed.GrantLease(i+1, l); err != nil {
			t.Fatal(err)
		}
	}
	push(t, crashed, 1, 1, 1, 1, 1, 0, 0, 2)
	push(t, crashed, 2, 1, 1, 2, 2, 0, 0, 2)
	img := crashed.Image()

	// Two captures of the same state must be identical (the image is
	// written periodically; determinism keeps rewrites comparable).
	img2 := crashed.Image()
	if len(img.Shards) != len(img2.Shards) {
		t.Fatalf("unstable export: %d vs %d shards", len(img.Shards), len(img2.Shards))
	}

	restored, err := collect.New(openDir(t), testMeta(), collect.Config{Restore: &img})
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.N(); got != 4 {
		t.Fatalf("restored N = %d, want 4", got)
	}
	if restored.Active() != 0 {
		t.Fatal("restored shards must start inactive — their sessions died with the old incarnation")
	}

	// A zombie push with a pre-crash grant must fence, never merge.
	zerr := restored.PushFrom(collect.PushOrigin{
		Worker: 1, Epoch: 1, Seq: 2, Lease: 1, Done: 4,
	}, snapOf(t, 1, 2, real8(1, 2), real8(1, 3)))
	if !errors.Is(zerr, collect.ErrFenced) {
		t.Fatalf("zombie push returned %v, want ErrFenced", zerr)
	}
	if restored.N() != 4 {
		t.Fatalf("zombie push changed N to %d", restored.N())
	}

	// The new incarnation re-registers the workers under epoch 2 and
	// reissues the unmerged remainders as fresh leases on the same procs.
	restored.RegisterEpoch(1, 2)
	restored.RegisterEpoch(2, 2)
	if err := restored.GrantLease(1, collect.Lease{ID: 11, Proc: 1, Start: 2, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if err := restored.GrantLease(2, collect.Lease{ID: 12, Proc: 2, Start: 2, Count: 2}); err != nil {
		t.Fatal(err)
	}
	push(t, restored, 1, 2, 1, 11, 1, 2, 2, 4)
	push(t, restored, 2, 2, 1, 12, 2, 2, 2, 4)

	got, err := restored.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
}

// TestRestoreRejectsMismatches: a run image from a different
// experiment shape or subsequence must be refused outright.
func TestRestoreRejectsMismatches(t *testing.T) {
	c, err := collect.New(openDir(t), testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterEpoch(1, 1)
	if err := c.Push(1, snapOf(t, 1, 2, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	img := c.Image()

	wrongDims := testMeta()
	wrongDims.Ncol = 3
	if _, err := collect.New(openDir(t), wrongDims, collect.Config{Restore: &img}); err == nil {
		t.Fatal("restore accepted an image with the wrong dimensions")
	}
	wrongSeq := testMeta()
	wrongSeq.SeqNum = 9
	if _, err := collect.New(openDir(t), wrongSeq, collect.Config{Restore: &img}); err == nil {
		t.Fatal("restore accepted an image from another experiments subsequence")
	}
	if _, err := collect.New(openDir(t), testMeta(), collect.Config{
		Restore: &img, Resume: true,
	}); err == nil {
		t.Fatal("Restore and Resume are mutually exclusive")
	}
}
