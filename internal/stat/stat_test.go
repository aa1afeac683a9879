package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, d := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d): expected panic", d[0], d[1])
				}
			}()
			New(d[0], d[1])
		}()
	}
}

func TestAddWrongLength(t *testing.T) {
	a := New(2, 3)
	if err := a.Add([]float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if err := a.Add(make([]float64, 6)); err != nil {
		t.Fatal(err)
	}
}

func TestScalarMoments(t *testing.T) {
	a := New(1, 1)
	vals := []float64{1, 2, 3, 4, 5}
	for _, v := range vals {
		if err := a.Add([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Report(DefaultConfidenceCoefficient)
	if r.N != 5 {
		t.Fatalf("N = %d", r.N)
	}
	if got := r.MeanAt(0, 0); got != 3 {
		t.Fatalf("mean = %g, want 3", got)
	}
	// Population variance of {1..5} is 2.
	if got := r.VarAt(0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("var = %g, want 2", got)
	}
	wantAbs := 3 * math.Sqrt(2) / math.Sqrt(5)
	if got := r.AbsErrAt(0, 0); math.Abs(got-wantAbs) > 1e-12 {
		t.Fatalf("abserr = %g, want %g", got, wantAbs)
	}
	wantRel := wantAbs / 3 * 100
	if got := r.RelErrAt(0, 0); math.Abs(got-wantRel) > 1e-12 {
		t.Fatalf("relerr = %g, want %g", got, wantRel)
	}
}

func TestMatrixLayoutRowMajor(t *testing.T) {
	a := New(2, 3)
	if err := a.Add([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	r := a.Report(3)
	if got := r.MeanAt(0, 2); got != 3 {
		t.Fatalf("(0,2) = %g, want 3", got)
	}
	if got := r.MeanAt(1, 0); got != 4 {
		t.Fatalf("(1,0) = %g, want 4", got)
	}
}

func TestEmptyReportZeros(t *testing.T) {
	r := New(2, 2).Report(3)
	if r.N != 0 || r.MaxAbsErr != 0 || r.MaxRelErr != 0 || r.MaxVar != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
	for _, v := range r.Mean {
		if v != 0 {
			t.Fatal("empty mean nonzero")
		}
	}
}

func TestConstantEntriesZeroVariance(t *testing.T) {
	a := New(1, 2)
	for i := 0; i < 100; i++ {
		if err := a.Add([]float64{7, 0}); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Report(3)
	if got := r.VarAt(0, 0); got != 0 {
		t.Fatalf("var of constant = %g", got)
	}
	if got := r.AbsErrAt(0, 0); got != 0 {
		t.Fatalf("abserr of constant = %g", got)
	}
	// Identically-zero entry: relative error 0 by convention.
	if got := r.RelErrAt(0, 1); got != 0 {
		t.Fatalf("relerr of zero entry = %g", got)
	}
}

func TestRelErrInfForZeroMeanNoise(t *testing.T) {
	a := New(1, 1)
	a.Add([]float64{1})
	a.Add([]float64{-1})
	r := a.Report(3)
	if got := r.MeanAt(0, 0); got != 0 {
		t.Fatalf("mean = %g", got)
	}
	if got := r.RelErrAt(0, 0); !math.IsInf(got, 1) {
		t.Fatalf("relerr = %g, want +Inf", got)
	}
}

func TestMaxima(t *testing.T) {
	a := New(1, 3)
	// Entry 0: constant; entry 1: small spread; entry 2: big spread.
	a.Add([]float64{5, 1.0, 10})
	a.Add([]float64{5, 1.2, 30})
	r := a.Report(3)
	if r.MaxVar != r.VarAt(0, 2) {
		t.Fatalf("MaxVar = %g, want entry 2's %g", r.MaxVar, r.VarAt(0, 2))
	}
	if r.MaxAbsErr != r.AbsErrAt(0, 2) {
		t.Fatal("MaxAbsErr wrong")
	}
	if r.MaxRelErr != math.Max(r.RelErrAt(0, 1), r.RelErrAt(0, 2)) {
		t.Fatal("MaxRelErr wrong")
	}
}

func TestMergeEqualsPooledAccumulation(t *testing.T) {
	// Merging M partial accumulators must give exactly the same report
	// as accumulating everything in one: the collector correctness
	// property, formula (5).
	rng := rand.New(rand.NewSource(42))
	pooled := New(3, 2)
	parts := make([]*Accumulator, 4)
	for m := range parts {
		parts[m] = New(3, 2)
	}
	for i := 0; i < 1000; i++ {
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.NormFloat64()*3 + float64(j)
		}
		if err := pooled.Add(row); err != nil {
			t.Fatal(err)
		}
		if err := parts[i%4].Add(row); err != nil {
			t.Fatal(err)
		}
	}
	merged := New(3, 2)
	for _, p := range parts {
		if err := merged.Merge(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	rp, rm := pooled.Report(3), merged.Report(3)
	if rp.N != rm.N {
		t.Fatalf("N: %d vs %d", rp.N, rm.N)
	}
	for i := range rp.Mean {
		if math.Abs(rp.Mean[i]-rm.Mean[i]) > 1e-9 {
			t.Fatalf("mean[%d]: %g vs %g", i, rp.Mean[i], rm.Mean[i])
		}
		if math.Abs(rp.Var[i]-rm.Var[i]) > 1e-9 {
			t.Fatalf("var[%d]: %g vs %g", i, rp.Var[i], rm.Var[i])
		}
	}
}

func TestMergeCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		if len(xs) == 0 || len(ys) == 0 {
			return true
		}
		a1, a2 := New(1, 1), New(1, 1)
		sa, sb := New(1, 1), New(1, 1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			sa.Add([]float64{x})
		}
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			sb.Add([]float64{y})
		}
		a1.Merge(sa.Snapshot())
		a1.Merge(sb.Snapshot())
		a2.Merge(sb.Snapshot())
		a2.Merge(sa.Snapshot())
		r1, r2 := a1.Report(3), a2.Report(3)
		return r1.N == r2.N && r1.Mean[0] == r2.Mean[0] && r1.Var[0] == r2.Var[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDimensionMismatch(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	if err := a.Merge(b.Snapshot()); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSnapshotValidate(t *testing.T) {
	good := New(2, 2).Snapshot()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Snapshot{
		{Nrow: 0, Ncol: 2},
		{Nrow: 2, Ncol: 2, Sum: make([]float64, 3), Sum2: make([]float64, 4)},
		{Nrow: 1, Ncol: 1, Sum: []float64{1}, Sum2: []float64{1}, N: -1},
		{Nrow: 1, Ncol: 1, Sum: []float64{math.NaN()}, Sum2: []float64{1}, N: 1},
		{Nrow: 1, Ncol: 1, Sum: []float64{1}, Sum2: []float64{-1}, N: 1},
		{Nrow: 1, Ncol: 1, Sum: []float64{1}, Sum2: []float64{math.Inf(1)}, N: 1},
		{Nrow: 1, Ncol: 1, Sum: []float64{1}, Sum2: []float64{1}, N: 1, SimTimeNS: -5},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestFromSnapshotRoundTrip(t *testing.T) {
	a := New(2, 2)
	a.AddTimed([]float64{1, 2, 3, 4}, time.Second)
	a.AddTimed([]float64{4, 3, 2, 1}, 3*time.Second)
	b, err := FromSnapshot(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Report(3), b.Report(3)
	if ra.N != rb.N || ra.MeanSimTime != rb.MeanSimTime {
		t.Fatal("round trip lost volume or timing")
	}
	for i := range ra.Mean {
		if ra.Mean[i] != rb.Mean[i] || ra.Var[i] != rb.Var[i] {
			t.Fatal("round trip lost moments")
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	a := New(1, 1)
	a.Add([]float64{1})
	s := a.Snapshot()
	a.Add([]float64{100})
	if s.Sum[0] != 1 || s.N != 1 {
		t.Fatal("snapshot aliases accumulator storage")
	}
}

// TestViewAliasesLiveStorage: View is the live storage — equal to a
// Snapshot taken at the same moment, and following the accumulator
// afterwards, where the Snapshot does not.
func TestViewAliasesLiveStorage(t *testing.T) {
	a := New(1, 3)
	a.AddTimed([]float64{1, 2, 3}, time.Second)
	v, s := a.View(), a.Snapshot()
	if v.Nrow != s.Nrow || v.Ncol != s.Ncol || v.N != s.N || v.SimTimeNS != s.SimTimeNS {
		t.Fatalf("view header %+v differs from snapshot header %+v", v, s)
	}
	for i := range s.Sum {
		if v.Sum[i] != s.Sum[i] || v.Sum2[i] != s.Sum2[i] {
			t.Fatalf("view moments differ from snapshot at %d", i)
		}
	}
	a.Add([]float64{10, 10, 10})
	if v.Sum[0] != 11 || s.Sum[0] != 1 {
		t.Fatalf("after Add: view Sum[0] = %g (want 11, aliased), snapshot Sum[0] = %g (want 1, owned)", v.Sum[0], s.Sum[0])
	}
}

func TestMeanSimTime(t *testing.T) {
	a := New(1, 1)
	a.AddTimed([]float64{0}, 2*time.Second)
	a.AddTimed([]float64{0}, 4*time.Second)
	r := a.Report(3)
	if r.MeanSimTime != 3*time.Second {
		t.Fatalf("MeanSimTime = %v, want 3s", r.MeanSimTime)
	}
}

func TestReset(t *testing.T) {
	a := New(1, 1)
	a.AddTimed([]float64{5}, time.Second)
	a.Reset()
	if a.N() != 0 || a.SimTime() != 0 {
		t.Fatal("reset incomplete")
	}
	r := a.Report(3)
	if r.Mean[0] != 0 {
		t.Fatal("reset left moments behind")
	}
}

func TestConvergenceToExpectation(t *testing.T) {
	// Law of large numbers sanity: the 3σ error bound actually contains
	// the true mean for a uniform variable with overwhelming probability.
	rng := rand.New(rand.NewSource(7))
	a := New(1, 1)
	const n = 200000
	for i := 0; i < n; i++ {
		a.Add([]float64{rng.Float64()})
	}
	r := a.Report(DefaultConfidenceCoefficient)
	if diff := math.Abs(r.MeanAt(0, 0) - 0.5); diff > r.AbsErrAt(0, 0) {
		t.Fatalf("|mean-0.5| = %g exceeds 3σ bound %g", diff, r.AbsErrAt(0, 0))
	}
	// Variance of U(0,1) is 1/12 ≈ 0.0833.
	if got := r.VarAt(0, 0); math.Abs(got-1.0/12) > 0.002 {
		t.Fatalf("var = %g, want ≈ 1/12", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	r := New(2, 2).Report(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.At(2, 0)
}

func BenchmarkAdd1000x2(b *testing.B) {
	a := New(1000, 2)
	row := make([]float64, 2000)
	for i := range row {
		row[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Add(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge1000x2(b *testing.B) {
	a := New(1000, 2)
	s := New(1000, 2)
	s.Add(make([]float64, 2000))
	snap := s.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Merge(snap); err != nil {
			b.Fatal(err)
		}
	}
}
