// Package rng implements the PARMONC parallel random number generator:
// the three-level hierarchy of embedded subsequences of the base 128-bit
// congruential generator (Marchenko, PaCT 2011, Sec. 2.4).
//
// The general sequence {α_k} is divided by "leaps" into nested
// subsequences assigned to
//
//   - stochastic experiments (leap length n_e, default 2^115),
//   - processors within an experiment (leap length n_p, default 2^98),
//   - realizations within a processor (leap length n_r, default 2^43),
//
// so that
//
//	general sequence ⊃ "experiments" ⊃ "processors" ⊃ "realizations".
//
// With the defaults, the first half of the period (2^125 numbers)
// accommodates 2^10 ≈ 10^3 experiments × 2^17 ≈ 10^5 processors ×
// 2^55 ≈ 10^16 realizations, each realization drawing up to 2^43 ≈ 10^13
// base random numbers — "practically infinite" scaling in the paper's
// words.
//
// A Stream is positioned at the start of one realization subsequence; the
// user's realization routine draws base random numbers from it exactly as
// a sequential program would call the paper's rnd128().
package rng

import (
	"fmt"
	"math"

	"parmonc/internal/lcg"
	"parmonc/internal/u128"
)

// Default leap exponents (Sec. 2.4 of the paper).
const (
	DefaultExperimentLeapLog2  = 115 // n_e = 2^115 ≈ 10^34
	DefaultProcessorLeapLog2   = 98  // n_p = 2^98 ≈ 10^29
	DefaultRealizationLeapLog2 = 43  // n_r = 2^43 ≈ 10^13
)

// Params holds the leap exponents of the substream hierarchy. The leaps
// are n_e = 2^ExperimentLeapLog2, n_p = 2^ProcessorLeapLog2 and
// n_r = 2^RealizationLeapLog2. A zero Params is not valid; use
// DefaultParams or NewParams.
type Params struct {
	ExperimentLeapLog2  uint
	ProcessorLeapLog2   uint
	RealizationLeapLog2 uint
}

// DefaultParams returns the paper's default leap exponents
// (n_e, n_p, n_r) = (2^115, 2^98, 2^43).
func DefaultParams() Params {
	return Params{
		ExperimentLeapLog2:  DefaultExperimentLeapLog2,
		ProcessorLeapLog2:   DefaultProcessorLeapLog2,
		RealizationLeapLog2: DefaultRealizationLeapLog2,
	}
}

// NewParams validates and returns custom leap exponents, enforcing the
// paper's nesting requirement n_r ≤ n_p ≤ n_e and that the experiment
// leap fits in the usable half-period.
func NewParams(ne, np, nr uint) (Params, error) {
	p := Params{ExperimentLeapLog2: ne, ProcessorLeapLog2: np, RealizationLeapLog2: nr}
	return p, p.Validate()
}

// Validate checks the nesting invariants of the hierarchy.
func (p Params) Validate() error {
	if p.RealizationLeapLog2 > p.ProcessorLeapLog2 {
		return fmt.Errorf("rng: realization leap 2^%d exceeds processor leap 2^%d",
			p.RealizationLeapLog2, p.ProcessorLeapLog2)
	}
	if p.ProcessorLeapLog2 > p.ExperimentLeapLog2 {
		return fmt.Errorf("rng: processor leap 2^%d exceeds experiment leap 2^%d",
			p.ProcessorLeapLog2, p.ExperimentLeapLog2)
	}
	if p.ExperimentLeapLog2 > lcg.UsableLog2 {
		return fmt.Errorf("rng: experiment leap 2^%d exceeds usable half-period 2^%d",
			p.ExperimentLeapLog2, lcg.UsableLog2)
	}
	return nil
}

// MaxExperiments returns the number of stochastic experiments the usable
// half-period accommodates: 2^(125 - ne).
func (p Params) MaxExperiments() u128.Uint128 {
	return u128.One.Lsh(lcg.UsableLog2 - p.ExperimentLeapLog2)
}

// MaxProcessors returns the number of processor subsequences per
// experiment: 2^(ne - np).
func (p Params) MaxProcessors() u128.Uint128 {
	return u128.One.Lsh(p.ExperimentLeapLog2 - p.ProcessorLeapLog2)
}

// MaxRealizations returns the number of realization subsequences per
// processor: 2^(np - nr).
func (p Params) MaxRealizations() u128.Uint128 {
	return u128.One.Lsh(p.ProcessorLeapLog2 - p.RealizationLeapLog2)
}

// RealizationBudget returns the number of base random numbers available
// to a single realization: n_r = 2^nr.
func (p Params) RealizationBudget() u128.Uint128 {
	return u128.One.Lsh(p.RealizationLeapLog2)
}

// Multipliers returns the three leap multipliers Â(n_e), Â(n_p), Â(n_r)
// for the default base multiplier A. These are the values the paper's
// genparam command computes and stores.
func (p Params) Multipliers() (ae, ap, ar u128.Uint128) {
	return lcg.LeapMultiplierPow2(p.ExperimentLeapLog2),
		lcg.LeapMultiplierPow2(p.ProcessorLeapLog2),
		lcg.LeapMultiplierPow2(p.RealizationLeapLog2)
}

// Coord identifies one realization subsequence within the hierarchy:
// experiment seqnum (the user-chosen argument of parmoncf/parmoncc),
// processor index (the parallel branch number), and realization index on
// that processor.
type Coord struct {
	Experiment  uint64
	Processor   uint64
	Realization uint64
}

// offset returns the absolute position of the subsequence start within
// the general sequence: e·n_e + p·n_p + r·n_r.
func (p Params) offset(c Coord) u128.Uint128 {
	e := u128.From64(c.Experiment).Lsh(p.ExperimentLeapLog2)
	pr := u128.From64(c.Processor).Lsh(p.ProcessorLeapLog2)
	r := u128.From64(c.Realization).Lsh(p.RealizationLeapLog2)
	return e.Add(pr).Add(r)
}

// CheckCoord verifies that a coordinate lies within the capacity of the
// hierarchy, so that distinct coordinates yield non-overlapping
// subsequences.
func (p Params) CheckCoord(c Coord) error {
	if max := p.MaxExperiments(); u128.From64(c.Experiment).Cmp(max) >= 0 {
		return fmt.Errorf("rng: experiment %d exceeds capacity %s", c.Experiment, max)
	}
	if max := p.MaxProcessors(); u128.From64(c.Processor).Cmp(max) >= 0 {
		return fmt.Errorf("rng: processor %d exceeds capacity %s", c.Processor, max)
	}
	if max := p.MaxRealizations(); u128.From64(c.Realization).Cmp(max) >= 0 {
		return fmt.Errorf("rng: realization %d exceeds capacity %s", c.Realization, max)
	}
	return nil
}

// Stream is a positioned view into the general sequence of base random
// numbers: the realization subsequence at a given Coord. It implements
// the Source interface consumed by the distribution and simulation
// packages.
//
// A Stream is not safe for concurrent use. The PARMONC design never
// shares one: each realization gets its own.
type Stream struct {
	gen    lcg.Gen
	params Params
	coord  Coord
	drawn  uint64       // base random numbers drawn so far
	start  u128.Uint128 // generator state at the start of the current realization
	leap   u128.Uint128 // Â(n_r): the step from one realization start to the next
	last   uint64       // largest realization index the hierarchy holds
}

// NewStream returns a Stream positioned at the start of the realization
// subsequence identified by c. It returns an error if c exceeds the
// hierarchy capacity.
func NewStream(p Params, c Coord) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.CheckCoord(c); err != nil {
		return nil, err
	}
	s := &Stream{gen: *lcg.New(), params: p, coord: c, leap: lcg.LeapMultiplierPow2(p.RealizationLeapLog2)}
	s.gen.SkipAhead(p.offset(c))
	s.start = s.gen.State()
	s.last = math.MaxUint64
	if max := p.MaxRealizations(); max.Hi == 0 {
		s.last = max.Lo - 1
	}
	return s, nil
}

// Coord returns the stream's position in the hierarchy.
func (s *Stream) Coord() Coord { return s.coord }

// Params returns the hierarchy parameters the stream was built with.
func (s *Stream) Params() Params { return s.params }

// Drawn returns the number of base random numbers drawn from the stream.
func (s *Stream) Drawn() uint64 { return s.drawn }

// Float64 returns the next base random number α ∈ (0, 1). This is the
// library's rnd128(): the user's realization routine calls it exactly as
// the sequential code would.
func (s *Stream) Float64() float64 {
	s.drawn++
	return s.gen.Float64()
}

// Uint64 returns 64 uniform random bits (the high half of the next
// generator state). It draws one base random number.
func (s *Stream) Uint64() uint64 {
	s.drawn++
	return s.gen.Next().Hi
}

// NextRealization repositions the stream at the start of the next
// realization subsequence on the same processor. The PARMONC driver calls
// this before each realization so that every realization consumes an
// independent subsequence regardless of how many numbers the previous one
// drew.
//
// Consecutive realization starts are exactly n_r draws apart, so the
// step is one multiplication of the current realization's start state
// by Â(n_r) — exact, because the arithmetic is modulo 2^128. At the
// capacity boundary it returns an error and leaves the stream as it was.
func (s *Stream) NextRealization() error {
	if s.coord.Realization >= s.last {
		if s.coord.Realization == math.MaxUint64 {
			return fmt.Errorf("rng: realization index %d cannot advance", s.coord.Realization)
		}
		next := s.coord
		next.Realization++
		return s.params.CheckCoord(next)
	}
	next := s.start.Mul(s.leap)
	if err := s.gen.SetState(next); err != nil {
		return err
	}
	s.start = next
	s.coord.Realization++
	s.drawn = 0
	return nil
}

// State exposes the underlying generator state (for checkpointing).
func (s *Stream) State() u128.Uint128 { return s.gen.State() }

// Source is the minimal interface the simulation substrates consume: a
// supplier of base random numbers uniform on (0, 1). *Stream implements
// it, as does *lcg.Gen via an adapter, and test doubles can too.
type Source interface {
	Float64() float64
}

var _ Source = (*Stream)(nil)

// Discard advances the stream by n base random numbers in O(log n)
// time using the leap multiplier — useful for realization routines
// that must align with a fixed draw layout without generating the
// intermediate numbers. The discarded draws count against Drawn.
func (s *Stream) Discard(n uint64) {
	s.gen.SkipAhead(u128.From64(n))
	s.drawn += n
}
