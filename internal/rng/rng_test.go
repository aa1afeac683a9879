package rng

import (
	"testing"

	"parmonc/internal/lcg"
	"parmonc/internal/u128"
)

func mustStream(t *testing.T, p Params, c Coord) *Stream {
	t.Helper()
	s, err := NewStream(p, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityDefaults(t *testing.T) {
	// Sec. 2.4: 2^125·2^-115 = 2^10 ≈ 10^3 experiments; 2^115·2^-98 =
	// 2^17 ≈ 10^5 processors; 2^98·2^-43 = 2^55 ≈ 10^16 realizations.
	p := DefaultParams()
	if got, want := p.MaxExperiments(), u128.One.Lsh(10); !got.Eq(want) {
		t.Errorf("MaxExperiments = %s, want 2^10", got)
	}
	if got, want := p.MaxProcessors(), u128.One.Lsh(17); !got.Eq(want) {
		t.Errorf("MaxProcessors = %s, want 2^17", got)
	}
	if got, want := p.MaxRealizations(), u128.One.Lsh(55); !got.Eq(want) {
		t.Errorf("MaxRealizations = %s, want 2^55", got)
	}
	if got, want := p.RealizationBudget(), u128.One.Lsh(43); !got.Eq(want) {
		t.Errorf("RealizationBudget = %s, want 2^43", got)
	}
}

func TestCapacityProductFillsHalfPeriod(t *testing.T) {
	// experiments × processors × realizations × budget = 2^125: the
	// hierarchy tiles the usable half-period exactly.
	p := DefaultParams()
	total := uint(p.MaxExperiments().BitLen()-1) +
		uint(p.MaxProcessors().BitLen()-1) +
		uint(p.MaxRealizations().BitLen()-1) +
		uint(p.RealizationBudget().BitLen()-1)
	if total != lcg.UsableLog2 {
		t.Fatalf("hierarchy covers 2^%d, want 2^%d", total, lcg.UsableLog2)
	}
}

func TestNewParamsRejectsBadNesting(t *testing.T) {
	cases := []struct{ ne, np, nr uint }{
		{98, 115, 43},  // np > ne
		{115, 43, 98},  // nr > np
		{126, 98, 43},  // ne > usable half-period
		{115, 98, 120}, // nr > np (and ne)
	}
	for _, c := range cases {
		if _, err := NewParams(c.ne, c.np, c.nr); err == nil {
			t.Errorf("NewParams(%d,%d,%d): expected error", c.ne, c.np, c.nr)
		}
	}
}

func TestNewParamsAcceptsEqualLeaps(t *testing.T) {
	// Degenerate but legal: all levels the same size.
	if _, err := NewParams(40, 40, 40); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMatchesManualLeap(t *testing.T) {
	// A stream at Coord{e,p,r} must equal the base generator advanced by
	// e·2^115 + p·2^98 + r·2^43.
	p := DefaultParams()
	c := Coord{Experiment: 3, Processor: 5, Realization: 7}
	s := mustStream(t, p, c)

	g := lcg.New()
	off := u128.From64(3).Lsh(115).Add(u128.From64(5).Lsh(98)).Add(u128.From64(7).Lsh(43))
	g.SkipAhead(off)
	if !s.State().Eq(g.State()) {
		t.Fatalf("stream state %s, manual leap %s", s.State(), g.State())
	}
	// And produce identical numbers afterwards.
	for i := 0; i < 100; i++ {
		if a, b := s.Float64(), g.Float64(); a != b {
			t.Fatalf("diverged at draw %d: %g vs %g", i, a, b)
		}
	}
}

func TestZeroCoordIsGeneralSequence(t *testing.T) {
	s := mustStream(t, DefaultParams(), Coord{})
	g := lcg.New()
	for i := 0; i < 100; i++ {
		if a, b := s.Float64(), g.Float64(); a != b {
			t.Fatalf("draw %d: %g vs %g", i, a, b)
		}
	}
}

func TestCheckCoordCapacity(t *testing.T) {
	p := DefaultParams()
	ok := []Coord{
		{},
		{Experiment: 1023},           // 2^10 - 1
		{Processor: 1<<17 - 1},       // max processor
		{Realization: 1<<55 - 1},     // max realization
		{1023, 1<<17 - 1, 1<<55 - 1}, // all at max simultaneously
	}
	for _, c := range ok {
		if err := p.CheckCoord(c); err != nil {
			t.Errorf("CheckCoord(%+v): unexpected error %v", c, err)
		}
	}
	bad := []Coord{
		{Experiment: 1 << 10},
		{Processor: 1 << 17},
		{Realization: 1 << 55},
	}
	for _, c := range bad {
		if err := p.CheckCoord(c); err == nil {
			t.Errorf("CheckCoord(%+v): expected error", c)
		}
	}
}

func TestDistinctCoordsDistinctStates(t *testing.T) {
	p := DefaultParams()
	coords := []Coord{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0},
		{0, 1, 1}, {1, 1, 0}, {1, 0, 1}, {1, 1, 1},
		{2, 3, 4}, {7, 100, 12345},
	}
	seen := map[string]Coord{}
	for _, c := range coords {
		s := mustStream(t, p, c)
		h := s.State().Hex()
		if prev, dup := seen[h]; dup {
			t.Fatalf("coords %+v and %+v share state %s", prev, c, h)
		}
		seen[h] = c
	}
}

func TestSubsequenceNestingIdentity(t *testing.T) {
	// Processor p's subsequence within experiment e starts exactly where
	// the experiment subsequence, advanced by p·n_p, starts: the
	// hierarchy is genuinely nested, not merely disjoint.
	p := DefaultParams()
	s := mustStream(t, p, Coord{Experiment: 2, Processor: 9})

	g := lcg.New()
	g.SkipAhead(u128.From64(2).Lsh(p.ExperimentLeapLog2))
	g.SkipAhead(u128.From64(9).Lsh(p.ProcessorLeapLog2))
	if !s.State().Eq(g.State()) {
		t.Fatal("processor subsequence is not nested inside experiment subsequence")
	}
}

func TestNextRealizationAdvances(t *testing.T) {
	p := DefaultParams()
	s := mustStream(t, p, Coord{Experiment: 1, Processor: 2})

	// Draw a few numbers, then move to the next realization.
	for i := 0; i < 10; i++ {
		s.Float64()
	}
	if err := s.NextRealization(); err != nil {
		t.Fatal(err)
	}
	if got := s.Coord(); got.Realization != 1 {
		t.Fatalf("Realization = %d, want 1", got.Realization)
	}
	if got := s.Drawn(); got != 0 {
		t.Fatalf("Drawn = %d after NextRealization, want 0", got)
	}
	// Must match a freshly-built stream at the same coordinate.
	fresh := mustStream(t, p, Coord{Experiment: 1, Processor: 2, Realization: 1})
	if !s.State().Eq(fresh.State()) {
		t.Fatal("NextRealization landed at wrong state")
	}
}

func TestNextRealizationIndependentOfDrawCount(t *testing.T) {
	// Realization k+1's stream does not depend on how many numbers
	// realization k consumed — the core PARMONC reproducibility property.
	p := DefaultParams()
	a := mustStream(t, p, Coord{})
	b := mustStream(t, p, Coord{})
	for i := 0; i < 5; i++ {
		a.Float64()
	}
	for i := 0; i < 5000; i++ {
		b.Float64()
	}
	if err := a.NextRealization(); err != nil {
		t.Fatal(err)
	}
	if err := b.NextRealization(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d differs: %g vs %g", i, x, y)
		}
	}
}

func TestNextRealizationCapacityExhaustion(t *testing.T) {
	// With tiny custom leaps, exhausting realizations must error rather
	// than silently overlap the next processor's subsequence.
	p, err := NewParams(20, 10, 5) // 2^5 realizations per processor... 2^(10-5)=32
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(p, Coord{Realization: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.NextRealization(); err != nil { // -> 31, still fine
		t.Fatal(err)
	}
	if err := s.NextRealization(); err == nil { // -> 32, out of range
		t.Fatal("expected capacity error at realization 32")
	}
}

func TestUint64Draws(t *testing.T) {
	p := DefaultParams()
	s := mustStream(t, p, Coord{})
	v := s.Uint64()
	g := lcg.New()
	if want := g.Next().Hi; v != want {
		t.Fatalf("Uint64 = %x, want %x", v, want)
	}
	if s.Drawn() != 1 {
		t.Fatalf("Drawn = %d, want 1", s.Drawn())
	}
}

func TestStreamsOnDifferentProcessorsDiffer(t *testing.T) {
	// First few numbers from 8 different processor streams must all be
	// distinct (coarse independence smoke test; the rngtest package does
	// the rigorous testing).
	p := DefaultParams()
	seen := map[float64]int{}
	for proc := uint64(0); proc < 8; proc++ {
		s := mustStream(t, p, Coord{Processor: proc})
		for i := 0; i < 100; i++ {
			v := s.Float64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("value %g repeats between processors %d and %d", v, prev, proc)
			}
			seen[v] = int(proc)
		}
	}
}

func BenchmarkNewStream(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		s, err := NewStream(p, Coord{Experiment: 1, Processor: 3, Realization: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

func BenchmarkNextRealization(b *testing.B) {
	s, err := NewStream(DefaultParams(), Coord{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := s.NextRealization(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamFloat64(b *testing.B) {
	s, err := NewStream(DefaultParams(), Coord{})
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Float64()
	}
	_ = sink
}

func TestDiscardMatchesDrawing(t *testing.T) {
	p := DefaultParams()
	a := mustStream(t, p, Coord{Processor: 3})
	b := mustStream(t, p, Coord{Processor: 3})
	for i := 0; i < 1234; i++ {
		a.Float64()
	}
	b.Discard(1234)
	if a.Drawn() != b.Drawn() {
		t.Fatalf("drawn counts differ: %d vs %d", a.Drawn(), b.Drawn())
	}
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("streams diverge after discard at %d", i)
		}
	}
}

func TestDiscardZeroNoOp(t *testing.T) {
	s := mustStream(t, DefaultParams(), Coord{})
	before := s.State()
	s.Discard(0)
	if !s.State().Eq(before) {
		t.Fatal("Discard(0) moved the stream")
	}
}
