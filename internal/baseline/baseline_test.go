package baseline

import (
	"testing"

	"parmonc/internal/lcg"
	"parmonc/internal/rngtest"
)

func TestMult40Value(t *testing.T) {
	// 5^17 = 762939453125, which is below 2^40 so no reduction occurs.
	var m uint64 = 1
	for i := 0; i < 17; i++ {
		m *= 5
	}
	if Mult40 != m {
		t.Fatalf("Mult40 = %d, want %d", Mult40, m)
	}
	if Mult40&7 != 5 {
		t.Fatalf("Mult40 mod 8 = %d, want 5", Mult40&7)
	}
}

func TestStatesStayIn40Bits(t *testing.T) {
	g := New40()
	for i := 0; i < 100000; i++ {
		if s := g.Next(); s >= 1<<R40 {
			t.Fatalf("state %d exceeds 2^40", s)
		}
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	g := New40()
	for i := 0; i < 100000; i++ {
		v := g.Float64()
		if v <= 0 || v >= 1 {
			t.Fatalf("α = %g", v)
		}
	}
}

func TestSkipAheadMatchesStepping(t *testing.T) {
	for _, n := range []uint64{0, 1, 5, 1000, 99991} {
		a, b := New40(), New40()
		a.SkipAhead(n)
		for i := uint64(0); i < n; i++ {
			b.Next()
		}
		if a.State() != b.State() {
			t.Fatalf("SkipAhead(%d): %d vs %d", n, a.State(), b.State())
		}
	}
}

func TestPeriodLawOnSmallModuli(t *testing.T) {
	// The period of u·5^odd mod 2^r is 2^(r-2): verify by enumeration
	// for several r — this is the law behind both the baseline's 2^38
	// and the 128-bit generator's 2^126.
	for _, r := range []uint{8, 12, 16, 20, 24} {
		n, err := CycleLength(r, 17)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(1) << (r - 2); n != want {
			t.Errorf("r=%d: cycle %d, want %d", r, n, want)
		}
	}
}

func TestCycleLengthValidation(t *testing.T) {
	if _, err := CycleLength(2, 17); err == nil {
		t.Error("r=2 accepted")
	}
	if _, err := CycleLength(40, 17); err == nil {
		t.Error("r=40 accepted (not enumerable)")
	}
	if _, err := CycleLength(16, 0); err == nil {
		t.Error("mexp=0 accepted")
	}
}

func TestDrawsPerRealization(t *testing.T) {
	// The paper's SDE test draws ~2·10^8 normals per realization, i.e.
	// ~4·10^8 uniforms: the baseline generator fits only ~343
	// realizations in its usable half-period — the motivation for the
	// 128-bit generator.
	got, err := DrawsPerRealization(4e8)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1000 {
		t.Fatalf("baseline fits %d heavy realizations; expected catastrophically few", got)
	}
	if got == 0 {
		t.Fatal("expected at least one realization")
	}
	if _, err := DrawsPerRealization(0); err == nil {
		t.Fatal("zero draws accepted")
	}
}

func TestBaselinePassesBasicUniformity(t *testing.T) {
	// The 40-bit generator is statistically fine at small scale — its
	// flaw is the period, not short-range uniformity. The battery must
	// pass, which sharpens the point of the comparison.
	verdicts, err := rngtest.Battery(New40(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.Pass(1e-4) {
			t.Errorf("baseline failed %s", v)
		}
	}
}

func TestPeriodConstant(t *testing.T) {
	if Period40 != 1<<38 {
		t.Fatalf("Period40 = %d", Period40)
	}
}

func BenchmarkNext40(b *testing.B) {
	g := New40()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkFloat64_40(b *testing.B) {
	g := New40()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = g.Float64()
	}
	_ = sink
}

// BenchmarkRNG compares the 128-bit PARMONC generator against the
// 40-bit baseline whose period exhaustion motivates it (Sec. 2.2).
func BenchmarkRNG(b *testing.B) {
	b.Run("parmonc128-next", func(b *testing.B) {
		g := lcg.New()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = g.Float64()
		}
		_ = sink
	})
	b.Run("baseline40-next", func(b *testing.B) {
		g := New40()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = g.Float64()
		}
		_ = sink
	})
}
