package stat

import (
	"fmt"
	"math"
	"time"
)

// StableAccumulator is a numerically robust alternative to Accumulator:
// it tracks running means and centered second moments (Welford's
// algorithm) instead of raw sums Σζ and Σζ², and merges partial results
// with the exact parallel combination of Chan, Golub & LeVeque (1983).
//
// The original PARMONC stores raw sums, which is exactly what
// Accumulator reproduces — but raw sums lose precision catastrophically
// when |Eζ| ≫ σ (the variance appears as the difference of two huge
// numbers). StableAccumulator computes the same statistics with
// relative error near machine epsilon in that regime, at ~2× the
// arithmetic cost per entry. Use it for workloads with large means and
// small fluctuations; the wire format is shared (Snapshot carries raw
// sums, converted on the way in and out, so a stable collector can
// merge plain workers and vice versa — at the cost of reintroducing the
// raw-sum rounding for data that crossed the wire in that form).
type StableAccumulator struct {
	nrow, ncol int
	mean       []float64 // running means
	m2         []float64 // Σ (ζ − mean)², centered
	n          int64
	simTime    time.Duration
}

// NewStable returns an empty stable accumulator for nrow×ncol
// realization matrices.
func NewStable(nrow, ncol int) *StableAccumulator {
	if nrow <= 0 || ncol <= 0 {
		panic(fmt.Sprintf("stat: invalid dimensions %d×%d", nrow, ncol))
	}
	return &StableAccumulator{
		nrow: nrow,
		ncol: ncol,
		mean: make([]float64, nrow*ncol),
		m2:   make([]float64, nrow*ncol),
	}
}

// Rows returns the number of realization matrix rows.
func (a *StableAccumulator) Rows() int { return a.nrow }

// Cols returns the number of realization matrix columns.
func (a *StableAccumulator) Cols() int { return a.ncol }

// N returns the accumulated sample volume.
func (a *StableAccumulator) N() int64 { return a.n }

// Add accumulates one realization (Welford update).
func (a *StableAccumulator) Add(realization []float64) error {
	if len(realization) != len(a.mean) {
		return fmt.Errorf("stat: realization has %d entries, accumulator wants %d", len(realization), len(a.mean))
	}
	a.n++
	inv := 1 / float64(a.n)
	for i, v := range realization {
		delta := v - a.mean[i]
		a.mean[i] += delta * inv
		a.m2[i] += delta * (v - a.mean[i])
	}
	return nil
}

// AddTimed accumulates one realization with its simulation time.
func (a *StableAccumulator) AddTimed(realization []float64, elapsed time.Duration) error {
	if err := a.Add(realization); err != nil {
		return err
	}
	a.simTime += elapsed
	return nil
}

// MergeStable combines another stable accumulator into this one using
// the exact parallel update:
//
//	δ = mean_b − mean_a
//	mean = mean_a + δ·n_b/n
//	M2   = M2_a + M2_b + δ²·n_a·n_b/n
func (a *StableAccumulator) MergeStable(b *StableAccumulator) error {
	if b.nrow != a.nrow || b.ncol != a.ncol {
		return fmt.Errorf("stat: cannot merge %d×%d into %d×%d", b.nrow, b.ncol, a.nrow, a.ncol)
	}
	if b.n == 0 {
		return nil
	}
	if a.n == 0 {
		copy(a.mean, b.mean)
		copy(a.m2, b.m2)
		a.n = b.n
		a.simTime = b.simTime
		return nil
	}
	na, nb := float64(a.n), float64(b.n)
	n := na + nb
	for i := range a.mean {
		delta := b.mean[i] - a.mean[i]
		a.mean[i] += delta * nb / n
		a.m2[i] += b.m2[i] + delta*delta*na*nb/n
	}
	a.n += b.n
	a.simTime += b.simTime
	return nil
}

// Merge folds a raw-sum Snapshot into the stable accumulator by
// converting it to (mean, M2) form first. Precision already lost in the
// snapshot's raw sums is not recoverable, but no further loss occurs.
func (a *StableAccumulator) Merge(s Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return a.MergeTrusted(s)
}

// MergeTrusted is Merge without the snapshot revalidation, for callers
// that already validated s at their boundary; see
// Accumulator.MergeTrusted.
func (a *StableAccumulator) MergeTrusted(s Snapshot) error {
	if s.Nrow != a.nrow || s.Ncol != a.ncol {
		return fmt.Errorf("stat: cannot merge %d×%d snapshot into %d×%d accumulator", s.Nrow, s.Ncol, a.nrow, a.ncol)
	}
	if s.N == 0 {
		return nil
	}
	b := NewStable(s.Nrow, s.Ncol)
	b.n = s.N
	b.simTime = time.Duration(s.SimTimeNS)
	l := float64(s.N)
	for i := range b.mean {
		mean := s.Sum[i] / l
		b.mean[i] = mean
		m2 := s.Sum2[i] - l*mean*mean
		if m2 < 0 {
			m2 = 0
		}
		b.m2[i] = m2
	}
	return a.MergeStable(b)
}

// Snapshot converts the stable state back to the shared raw-sum wire
// format.
func (a *StableAccumulator) Snapshot() Snapshot {
	s := Snapshot{
		Nrow:      a.nrow,
		Ncol:      a.ncol,
		Sum:       make([]float64, len(a.mean)),
		Sum2:      make([]float64, len(a.mean)),
		N:         a.n,
		SimTimeNS: int64(a.simTime),
	}
	l := float64(a.n)
	for i := range a.mean {
		s.Sum[i] = a.mean[i] * l
		s.Sum2[i] = a.m2[i] + l*a.mean[i]*a.mean[i]
	}
	return s
}

// Centered is the part of a StableAccumulator's state that its raw-sum
// Snapshot only approximates: the running means and centered second
// moments. Kept beside the Snapshot (which carries dimensions, volume
// and time), it rebuilds the accumulator bit for bit (FromCentered).
type Centered struct {
	Mean, M2 []float64
}

// Centered returns a copy of the exact Welford/Chan state.
func (a *StableAccumulator) Centered() Centered {
	return Centered{Mean: append([]float64(nil), a.mean...), M2: append([]float64(nil), a.m2...)}
}

// FromCentered reconstructs a stable accumulator from its Snapshot and
// its Centered state, reproducing the original's Report exactly.
func FromCentered(s Snapshot, c Centered) (*StableAccumulator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := NewStable(s.Nrow, s.Ncol)
	if len(c.Mean) != len(a.mean) || len(c.M2) != len(a.m2) {
		return nil, fmt.Errorf("stat: centered state has %d/%d entries, want %d", len(c.Mean), len(c.M2), len(a.mean))
	}
	copy(a.mean, c.Mean)
	copy(a.m2, c.M2)
	a.n = s.N
	a.simTime = time.Duration(s.SimTimeNS)
	return a, nil
}

// Report computes the derived statistics, matching Accumulator.Report's
// conventions (population variance, γ·σ̄·L^{-1/2} errors).
func (a *StableAccumulator) Report(gamma float64) Report {
	r := Report{
		Nrow:   a.nrow,
		Ncol:   a.ncol,
		N:      a.n,
		Mean:   make([]float64, len(a.mean)),
		Var:    make([]float64, len(a.mean)),
		AbsErr: make([]float64, len(a.mean)),
		RelErr: make([]float64, len(a.mean)),
		Gamma:  gamma,
	}
	if a.n == 0 {
		return r
	}
	l := float64(a.n)
	sqrtL := math.Sqrt(l)
	for i := range a.mean {
		mean := a.mean[i]
		variance := a.m2[i] / l
		if variance < 0 {
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
