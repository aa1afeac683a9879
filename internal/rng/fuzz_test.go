package rng

import (
	"fmt"
	"math"
	"testing"

	"parmonc/internal/lcg"
	"parmonc/internal/u128"
)

// FuzzDiscardMatchesSequential pins the leap-frog skip against the
// ground truth: advancing a stream with Discard(n) must land on exactly
// the state that n sequential draws reach, for any coordinate in the
// hierarchy. This is the property that makes checkpoint/restore and
// draw-layout alignment trustworthy — an off-by-one in the O(log n)
// skip would silently correlate "independent" substreams.
func FuzzDiscardMatchesSequential(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add(uint64(0), uint64(0), uint64(0), uint16(1))
	f.Add(uint64(1), uint64(7), uint64(3), uint16(1000))
	f.Add(uint64(42), uint64(1023), uint64(999), uint16(4096))
	f.Add(uint64(999), uint64(1), uint64(0), uint16(65535))
	f.Fuzz(func(t *testing.T, e, p, r uint64, n16 uint16) {
		c := Coord{
			Experiment:  e % 1024,
			Processor:   p % 65536,
			Realization: r % 65536,
		}
		n := uint64(n16)
		skip, err := NewStream(DefaultParams(), c)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewStream(DefaultParams(), c)
		if err != nil {
			t.Fatal(err)
		}
		skip.Discard(n)
		for i := uint64(0); i < n; i++ {
			seq.Float64()
		}
		if !skip.State().Eq(seq.State()) {
			t.Fatalf("coord %+v: Discard(%d) state %v, sequential state %v",
				c, n, skip.State(), seq.State())
		}
		if skip.Drawn() != seq.Drawn() {
			t.Fatalf("coord %+v: Discard(%d) drawn %d, sequential drawn %d",
				c, n, skip.Drawn(), seq.Drawn())
		}
		// One more sequential draw must agree too: equal state must mean
		// equal future, not just an equal snapshot.
		if skip.Float64() != seq.Float64() {
			t.Fatalf("coord %+v: streams diverge after Discard(%d)", c, n)
		}
	})
}

// FuzzSubstreamWindowsDisjoint samples a window of draws from several
// neighboring (processor, realization) substreams and requires every
// visited generator state to be globally unique. Overlapping substreams
// would revisit a state (an LCG's future is a function of its state),
// so a collision here is exactly the correlated-streams disaster the
// leap-frog hierarchy exists to prevent.
func FuzzSubstreamWindowsDisjoint(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(64))
	f.Add(uint64(3), uint64(100), uint16(128))
	f.Add(uint64(7777), uint64(12345), uint16(256))
	f.Fuzz(func(t *testing.T, pBase, rBase uint64, w16 uint16) {
		pBase %= 1 << 20
		rBase %= 1 << 20
		window := uint64(w16)%512 + 1
		seen := make(map[u128.Uint128]string, 6*window)
		for dp := uint64(0); dp < 2; dp++ {
			for dr := uint64(0); dr < 3; dr++ {
				c := Coord{Processor: pBase + dp, Realization: rBase + dr}
				s, err := NewStream(DefaultParams(), c)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < window; i++ {
					st := s.State()
					if prev, dup := seen[st]; dup {
						t.Fatalf("substream (p=%d,r=%d) draw %d revisits state of %s",
							c.Processor, c.Realization, i, prev)
					}
					seen[st] = fmt.Sprintf("(p=%d,r=%d) draw %d", c.Processor, c.Realization, i)
					s.Float64()
				}
			}
		}
	})
}

// FuzzNextRealizationMatchesNewStream pins the incremental step against
// positioning from the origin: for any valid hierarchy (including
// n_r = n_p, where a processor holds one realization), any starting
// coordinate and any number of draws between steps, every
// NextRealization must land on exactly the state NewStream computes for
// the next coordinate. At the capacity boundary the step must fail with
// CheckCoord's error for that coordinate and leave the stream as it was.
func FuzzNextRealizationMatchesNewStream(f *testing.F) {
	f.Add(uint8(115), uint8(98), uint8(43), uint64(1), uint64(2), uint64(0), false, uint8(3), uint8(8))
	f.Add(uint8(20), uint8(10), uint8(5), uint64(0), uint64(0), uint64(1), true, uint8(0), uint8(4))
	f.Add(uint8(10), uint8(10), uint8(10), uint64(3), uint64(0), uint64(0), false, uint8(1), uint8(2))
	f.Add(uint8(125), uint8(125), uint8(0), uint64(0), uint64(0), uint64(0), false, uint8(0), uint8(2))
	f.Add(uint8(125), uint8(100), uint8(0), uint64(0), uint64(0), uint64(2), true, uint8(5), uint8(5))
	f.Add(uint8(7), uint8(3), uint8(0), uint64(9), uint64(1), uint64(3), true, uint8(200), uint8(16))
	f.Fuzz(func(t *testing.T, ne8, np8, nr8 uint8, e, pr, r uint64, nearEnd bool, draws, steps uint8) {
		ne := uint(ne8) % (lcg.UsableLog2 + 1)
		np := uint(np8) % (ne + 1)
		nr := uint(nr8) % (np + 1)
		p, err := NewParams(ne, np, nr)
		if err != nil {
			t.Fatal(err)
		}
		// Reduce a raw index into [0, capacity); with nearEnd, count it
		// back from the last index instead, so short walks reach the
		// boundary.
		within := func(x uint64, capacity u128.Uint128, fromEnd bool) uint64 {
			if capacity.Hi != 0 {
				if fromEnd {
					return math.MaxUint64 - x%16
				}
				return x
			}
			x %= capacity.Lo
			if fromEnd {
				return capacity.Lo - 1 - x%16%capacity.Lo
			}
			return x
		}
		c := Coord{
			Experiment:  within(e, p.MaxExperiments(), false),
			Processor:   within(pr, p.MaxProcessors(), false),
			Realization: within(r, p.MaxRealizations(), nearEnd),
		}
		s, err := NewStream(p, c)
		if err != nil {
			t.Fatalf("params %+v coord %+v: %v", p, c, err)
		}
		for k := 0; k < int(steps)%32; k++ {
			for i := 0; i < int(draws)%64; i++ {
				s.Float64()
			}
			before, drawn, at := s.State(), s.Drawn(), s.Coord()
			err := s.NextRealization()
			next := at
			next.Realization++
			if at.Realization == math.MaxUint64 {
				if err == nil {
					t.Fatalf("params %+v: stepped past realization index %d", p, at.Realization)
				}
			} else if want := p.CheckCoord(next); want != nil {
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("params %+v coord %+v: step error %v, want CheckCoord's %v", p, at, err, want)
				}
			} else if err != nil {
				t.Fatalf("params %+v coord %+v: step refused: %v", p, at, err)
			}
			if err != nil {
				if !s.State().Eq(before) || s.Drawn() != drawn || s.Coord() != at {
					t.Fatalf("params %+v coord %+v: a refused step changed the stream", p, at)
				}
				return
			}
			ref, err := NewStream(p, next)
			if err != nil {
				t.Fatal(err)
			}
			if !s.State().Eq(ref.State()) || s.Coord() != next || s.Drawn() != 0 {
				t.Fatalf("params %+v: step %d to %+v: state %v coord %+v drawn %d; NewStream gives %v",
					p, k, next, s.State(), s.Coord(), s.Drawn(), ref.State())
			}
		}
	})
}
