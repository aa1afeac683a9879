// Package stat implements the PARMONC sample-moment machinery of
// Sec. 2.1–2.2 of the paper.
//
// A realization of a random object is a matrix [ζ_ij], 1 ≤ i ≤ nrow,
// 1 ≤ j ≤ ncol. The library accumulates, per entry, the running sums
// Σζ_ij and Σζ_ij² together with the sample volume L, from which it
// computes
//
//   - the matrix of sample means        ζ̄_ij = L⁻¹ Σ ζ_ij,
//   - the matrix of sample variances    σ̄²_ij = ξ̄_ij − ζ̄²_ij,
//   - the matrix of absolute errors     ε_ij = γ(λ)·σ̄_ij·L^{-1/2},
//   - the matrix of relative errors     ρ_ij = ε_ij/|ζ̄_ij|·100%,
//
// and the upper bounds ε_max, ρ_max, σ̄²_max over all entries. The default
// confidence coefficient is γ = 3, corresponding to confidence level
// λ = 0.997 of the normal distribution, exactly as in formula (3) of the
// paper.
//
// Accumulators merge by adding sums and sample volumes (formula (5)),
// which is what the collector processor does with the subtotal moments
// pushed by workers, and what resumption does with the moments loaded
// from a previous simulation's files.
package stat

import (
	"fmt"
	"math"
	"time"
)

// DefaultConfidenceCoefficient is γ(0.997) = 3, the paper's default.
const DefaultConfidenceCoefficient = 3.0

// Accumulator collects running first and second moments of a matrix-
// valued random variable. The zero value is unusable; construct with
// New. Accumulator is not safe for concurrent use: in the PARMONC
// design each worker owns one and the collector owns one, merged via
// snapshots.
type Accumulator struct {
	nrow, ncol int
	sum        []float64 // Σ ζ_ij, row-major
	sum2       []float64 // Σ ζ_ij², row-major
	n          int64     // sample volume L
	simTime    time.Duration
}

// New returns an empty accumulator for nrow×ncol realization matrices.
// It panics if either dimension is not positive (a programming error,
// not a runtime condition).
func New(nrow, ncol int) *Accumulator {
	if nrow <= 0 || ncol <= 0 {
		panic(fmt.Sprintf("stat: invalid dimensions %d×%d", nrow, ncol))
	}
	return &Accumulator{
		nrow: nrow,
		ncol: ncol,
		sum:  make([]float64, nrow*ncol),
		sum2: make([]float64, nrow*ncol),
	}
}

// Rows returns the number of realization matrix rows.
func (a *Accumulator) Rows() int { return a.nrow }

// Cols returns the number of realization matrix columns.
func (a *Accumulator) Cols() int { return a.ncol }

// N returns the accumulated sample volume L.
func (a *Accumulator) N() int64 { return a.n }

// SimTime returns the total simulation time accumulated via AddTimed.
func (a *Accumulator) SimTime() time.Duration { return a.simTime }

// Add accumulates one realization given as a row-major nrow×ncol slice.
// It returns an error if the slice has the wrong length.
func (a *Accumulator) Add(realization []float64) error {
	if len(realization) != len(a.sum) {
		return fmt.Errorf("stat: realization has %d entries, accumulator wants %d×%d=%d",
			len(realization), a.nrow, a.ncol, len(a.sum))
	}
	for i, v := range realization {
		a.sum[i] += v
		a.sum2[i] += v * v
	}
	a.n++
	return nil
}

// AddTimed accumulates one realization together with the wall time it
// took to simulate, feeding the mean-time-per-realization statistic in
// the log report.
func (a *Accumulator) AddTimed(realization []float64, elapsed time.Duration) error {
	if err := a.Add(realization); err != nil {
		return err
	}
	a.simTime += elapsed
	return nil
}

// Reset empties the accumulator in place, retaining dimensions.
func (a *Accumulator) Reset() {
	for i := range a.sum {
		a.sum[i] = 0
		a.sum2[i] = 0
	}
	a.n = 0
	a.simTime = 0
}

// Snapshot is the serializable state of an accumulator: the subtotal
// moments a worker pushes to the collector, and the on-disk checkpoint
// format's payload.
//
// Ownership. A Snapshot is a value, but Sum and Sum2 are slices, so who
// may read and write their storage has to be said. There is one rule,
// on every transport: a pushed snapshot is lent. The sender keeps
// ownership and must leave the storage untouched until the push call
// returns; the receiver (Collector.Push, a store write, an RPC encoder)
// reads it before returning, never writes to it, and keeps no reference
// to it afterwards. Accumulator.Snapshot yields storage the caller owns
// outright, for data that must outlive the accumulator's next change
// (run images, manaver); Accumulator.View lends the
// live storage itself and is what the exchange hot path pushes.
type Snapshot struct {
	Nrow, Ncol int
	Sum        []float64
	Sum2       []float64
	N          int64
	SimTimeNS  int64
}

// Snapshot returns a deep copy of the accumulator state, owned by the
// caller.
func (a *Accumulator) Snapshot() Snapshot {
	s := a.View()
	s.Sum = make([]float64, len(a.sum))
	s.Sum2 = make([]float64, len(a.sum2))
	copy(s.Sum, a.sum)
	copy(s.Sum2, a.sum2)
	return s
}

// View returns a borrowed snapshot: Sum and Sum2 alias the
// accumulator's live storage, so it costs no allocation and no copy
// whatever the matrix size. It is valid only until the next Add, Merge
// or Reset of a, and it is read-only — see the ownership rule on
// Snapshot. Hand it to a receiver that consumes it before returning;
// anything that must hold the moments longer takes Snapshot instead.
func (a *Accumulator) View() Snapshot {
	return Snapshot{
		Nrow:      a.nrow,
		Ncol:      a.ncol,
		Sum:       a.sum,
		Sum2:      a.sum2,
		N:         a.n,
		SimTimeNS: int64(a.simTime),
	}
}

// Validate checks internal consistency of a snapshot (dimensions, slice
// lengths, non-negative volume, finite moments, and moments consistent
// with a zero sample volume).
//
// Validation sits on every transport's merge path, so the finiteness
// scan is aggregate-first: four-way striped running sums detect any
// NaN/Inf in one pass (a non-finite element always poisons the total,
// since Inf never cancels back to a finite value), and the per-element
// scan that names the offending index runs only once something looks
// wrong. The striped pass can fire falsely when finite values overflow
// the aggregate; the precise pass then finds nothing and the snapshot
// is accepted.
func (s Snapshot) Validate() error {
	if s.Nrow <= 0 || s.Ncol <= 0 {
		return fmt.Errorf("stat: snapshot has invalid dimensions %d×%d", s.Nrow, s.Ncol)
	}
	want := s.Nrow * s.Ncol
	if len(s.Sum) != want || len(s.Sum2) != want {
		return fmt.Errorf("stat: snapshot slices have lengths %d/%d, want %d", len(s.Sum), len(s.Sum2), want)
	}
	if s.N < 0 {
		return fmt.Errorf("stat: snapshot has negative sample volume %d", s.N)
	}
	if s.SimTimeNS < 0 {
		return fmt.Errorf("stat: snapshot has negative simulation time %d", s.SimTimeNS)
	}
	if !momentsLookValid(s.Sum, s.Sum2) {
		if err := s.validateElements(); err != nil {
			return err
		}
	}
	if s.N == 0 {
		for i, v := range s.Sum {
			if v != 0 || s.Sum2[i] != 0 {
				return fmt.Errorf("stat: snapshot has zero sample volume but nonzero moment sums (Sum[%d] = %g, Sum2[%d] = %g)", i, v, i, s.Sum2[i])
			}
		}
	}
	return nil
}

// momentsLookValid reports whether every element of sum is finite and
// every element of sum2 is finite and non-negative, by checking striped
// aggregates: a running total is finite iff every addend was (t-t == 0
// iff t is finite — Inf never cancels back), and a striped running
// minimum catches negative Sum2 entries in the same pass (a NaN there
// fails the total instead, since NaN < x is always false). Both arrays
// are walked in one fused loop with the subslice-advance pattern so the
// loads run without bounds checks. May return false on finite inputs
// whose aggregate overflows; never returns true when a NaN, Inf, or
// negative second moment is present. Callers guarantee equal lengths.
func momentsLookValid(sum, sum2 []float64) bool {
	sum2 = sum2[:len(sum)]
	var t0, t1, t2, t3 float64
	var m0, m1, m2, m3 float64
	for len(sum) >= 8 {
		s, q := sum[:8], sum2[:8]
		t0 += s[0]
		t1 += s[1]
		t2 += s[2]
		t3 += s[3]
		t0 += s[4]
		t1 += s[5]
		t2 += s[6]
		t3 += s[7]
		v0, v1, v2, v3 := q[0], q[1], q[2], q[3]
		v4, v5, v6, v7 := q[4], q[5], q[6], q[7]
		t0 += v0
		t1 += v1
		t2 += v2
		t3 += v3
		t0 += v4
		t1 += v5
		t2 += v6
		t3 += v7
		if v0 < m0 {
			m0 = v0
		}
		if v1 < m1 {
			m1 = v1
		}
		if v2 < m2 {
			m2 = v2
		}
		if v3 < m3 {
			m3 = v3
		}
		if v4 < m0 {
			m0 = v4
		}
		if v5 < m1 {
			m1 = v5
		}
		if v6 < m2 {
			m2 = v6
		}
		if v7 < m3 {
			m3 = v7
		}
		sum, sum2 = sum[8:], sum2[8:]
	}
	for i, v := range sum {
		t0 += v
		w := sum2[i]
		t0 += w
		if w < m0 {
			m0 = w
		}
	}
	t := t0 + t1 + t2 + t3
	return t-t == 0 && m0 >= 0 && m1 >= 0 && m2 >= 0 && m3 >= 0
}

// validateElements is the precise per-element scan behind Validate's
// aggregate fast path; it names the first offending index.
func (s Snapshot) validateElements() error {
	for i, v := range s.Sum {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stat: snapshot Sum[%d] = %g is not finite", i, v)
		}
	}
	for i, v := range s.Sum2 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stat: snapshot Sum2[%d] = %g is not finite", i, v)
		}
		if v < 0 {
			return fmt.Errorf("stat: snapshot Sum2[%d] = %g is negative", i, v)
		}
	}
	return nil
}

// addInto adds src into dst elementwise: dst[i] += src[i]. Every merge
// funnels through here — it sits on the collector's push hot path, so
// it is tuned: the up-front reslice makes the equal-length guarantee
// (established by the callers' dimension checks) visible to the
// compiler, and the eight-way unrolled body advances both subslices so
// the adds run without bounds checks. Each element receives exactly one
// addition — no reassociation — so the result is bit-identical to the
// naive indexed loop.
func addInto(dst, src []float64) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		d, s := dst[:8], src[:8]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
		dst, src = dst[8:], src[8:]
	}
	for i, v := range src {
		dst[i] += v
	}
}

// FromSnapshot reconstructs an accumulator from a snapshot.
func FromSnapshot(s Snapshot) (*Accumulator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := New(s.Nrow, s.Ncol)
	copy(a.sum, s.Sum)
	copy(a.sum2, s.Sum2)
	a.n = s.N
	a.simTime = time.Duration(s.SimTimeNS)
	return a, nil
}

// Merge adds the moments of a snapshot into the accumulator — formula
// (5): ζ̄ = l⁻¹ Σ_m l_m ζ̄^(m) expressed on raw sums. Dimensions must
// match.
func (a *Accumulator) Merge(s Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Nrow != a.nrow || s.Ncol != a.ncol {
		return fmt.Errorf("stat: cannot merge %d×%d snapshot into %d×%d accumulator",
			s.Nrow, s.Ncol, a.nrow, a.ncol)
	}
	addInto(a.sum, s.Sum)
	addInto(a.sum2, s.Sum2)
	a.n += s.N
	a.simTime += time.Duration(s.SimTimeNS)
	return nil
}

// MergeTrusted is Merge without the snapshot revalidation — the same
// arithmetic, for callers that already validated s at their boundary
// (the collector validates each push exactly once and then folds it
// through staging accumulators). Only the dimension check remains,
// because merging mismatched shapes corrupts state rather than
// statistics.
func (a *Accumulator) MergeTrusted(s Snapshot) error {
	if s.Nrow != a.nrow || s.Ncol != a.ncol {
		return fmt.Errorf("stat: cannot merge %d×%d snapshot into %d×%d accumulator",
			s.Nrow, s.Ncol, a.nrow, a.ncol)
	}
	addInto(a.sum, s.Sum)
	addInto(a.sum2, s.Sum2)
	a.n += s.N
	a.simTime += time.Duration(s.SimTimeNS)
	return nil
}

// MergeFrom adds another accumulator's moments directly — bitwise the
// same result as MergeTrusted(b.Snapshot()) without materializing the
// snapshot copy. This is the reduction step of the sharded collector's
// deterministic fold.
func (a *Accumulator) MergeFrom(b *Accumulator) error {
	if b.nrow != a.nrow || b.ncol != a.ncol {
		return fmt.Errorf("stat: cannot merge %d×%d into %d×%d", b.nrow, b.ncol, a.nrow, a.ncol)
	}
	addInto(a.sum, b.sum)
	addInto(a.sum2, b.sum2)
	a.n += b.n
	a.simTime += b.simTime
	return nil
}

// Moments is the collector-side accumulator contract: everything the
// 0-th processor needs to merge subtotal snapshots (formula (5)) and
// derive the error matrices. It is satisfied by both Accumulator (raw
// sums, the paper's scheme) and StableAccumulator (Welford/Chan), which
// lets the collector engine switch accumulation schemes without
// changing any transport.
type Moments interface {
	Merge(Snapshot) error
	MergeTrusted(Snapshot) error
	Snapshot() Snapshot
	Report(gamma float64) Report
	N() int64
	Rows() int
	Cols() int
}

var (
	_ Moments = (*Accumulator)(nil)
	_ Moments = (*StableAccumulator)(nil)
)

// Report holds the derived statistics of an accumulator at a point in
// time: the four matrices the paper saves to files plus their upper
// bounds and timing information.
type Report struct {
	Nrow, Ncol int
	N          int64     // total sample volume L
	Mean       []float64 // ζ̄_ij, row-major
	Var        []float64 // σ̄²_ij
	AbsErr     []float64 // ε_ij = γ σ̄_ij L^{-1/2}
	RelErr     []float64 // ρ_ij = ε_ij/|ζ̄_ij| · 100%

	MaxAbsErr float64 // ε_max
	MaxRelErr float64 // ρ_max
	MaxVar    float64 // σ̄²_max

	Gamma       float64       // confidence coefficient used
	MeanSimTime time.Duration // mean computer time per realization (τ_ζ)
}

// Report computes the derived statistics with confidence coefficient γ
// (use DefaultConfidenceCoefficient for the paper's 3σ intervals). With
// L = 0 all matrices are zero and errors are zero.
//
// Relative error for a zero sample mean is reported as +Inf when the
// absolute error is positive (the estimate carries no relative accuracy)
// and 0 when the entry is identically zero.
func (a *Accumulator) Report(gamma float64) Report {
	r := Report{
		Nrow:   a.nrow,
		Ncol:   a.ncol,
		N:      a.n,
		Mean:   make([]float64, len(a.sum)),
		Var:    make([]float64, len(a.sum)),
		AbsErr: make([]float64, len(a.sum)),
		RelErr: make([]float64, len(a.sum)),
		Gamma:  gamma,
	}
	if a.n == 0 {
		return r
	}
	l := float64(a.n)
	sqrtL := math.Sqrt(l)
	for i := range a.sum {
		mean := a.sum[i] / l
		second := a.sum2[i] / l
		variance := second - mean*mean
		if variance < 0 { // numerical noise for near-constant entries
			variance = 0
		}
		abs := gamma * math.Sqrt(variance) / sqrtL
		r.Mean[i] = mean
		r.Var[i] = variance
		r.AbsErr[i] = abs
		switch {
		case mean != 0:
			r.RelErr[i] = abs / math.Abs(mean) * 100
		case abs > 0:
			r.RelErr[i] = math.Inf(1)
		default:
			r.RelErr[i] = 0
		}
		if r.AbsErr[i] > r.MaxAbsErr {
			r.MaxAbsErr = r.AbsErr[i]
		}
		if r.RelErr[i] > r.MaxRelErr {
			r.MaxRelErr = r.RelErr[i]
		}
		if r.Var[i] > r.MaxVar {
			r.MaxVar = r.Var[i]
		}
	}
	r.MeanSimTime = time.Duration(int64(a.simTime) / a.n)
	return r
}

// At returns the row-major index of entry (i, j); it panics on
// out-of-range indices (programming error).
func (r Report) At(i, j int) int {
	if i < 0 || i >= r.Nrow || j < 0 || j >= r.Ncol {
		panic(fmt.Sprintf("stat: index (%d,%d) out of range %d×%d", i, j, r.Nrow, r.Ncol))
	}
	return i*r.Ncol + j
}

// MeanAt returns ζ̄_ij.
func (r Report) MeanAt(i, j int) float64 { return r.Mean[r.At(i, j)] }

// VarAt returns σ̄²_ij.
func (r Report) VarAt(i, j int) float64 { return r.Var[r.At(i, j)] }

// AbsErrAt returns ε_ij.
func (r Report) AbsErrAt(i, j int) float64 { return r.AbsErr[r.At(i, j)] }

// RelErrAt returns ρ_ij in percent.
func (r Report) RelErrAt(i, j int) float64 { return r.RelErr[r.At(i, j)] }
