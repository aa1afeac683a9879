package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"parmonc/internal/rng"
)

// strictBytesPerRealization runs one strict-exchange RunFactory of L
// realizations on a 1×ncol matrix and returns the heap bytes the whole
// process allocated during it, per realization. The kernel writes one
// entry, like the density workload: the realization costs the same at
// any width, only the exchanged subtotal grows.
func strictBytesPerRealization(t *testing.T, ncol int, L int64) float64 {
	t.Helper()
	cfg := Config{
		Nrow:           1,
		Ncol:           ncol,
		MaxSamples:     L,
		Workers:        2,
		StrictExchange: true,
		AverPeriod:     time.Hour, // one save, at Finalize
		WorkDir:        t.TempDir(),
		Params:         rng.DefaultParams(),
	}
	factory := func(int) (Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			u := src.Float64()
			out[int(u*float64(len(out)))] = u
			return nil
		}, nil
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunFactory(context.Background(), cfg, factory)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.N != L || res.Metrics.Pushes != L {
		t.Fatalf("1×%d: N = %d, pushes = %d, want %d of each (strict exchange pushes every realization)",
			ncol, res.Report.N, res.Metrics.Pushes, L)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(L)
}

// TestStrictExchangeAllocationGate: under the paper's strictest exchange
// a worker lends the collector a view of its subtotal, so what a
// realization allocates must not depend on how wide the matrix is. A
// deep copy per push — 32 KB per realization at 1×2000 — fails this by
// three orders of magnitude. The once-per-run costs that do grow with
// the width (accumulators, the final report and checkpoint) are spread
// over L; at L = 40 000 they come to a few bytes per realization.
func TestStrictExchangeAllocationGate(t *testing.T) {
	const L = 40_000
	narrow := strictBytesPerRealization(t, 1, L)
	wide := strictBytesPerRealization(t, 2000, L)
	t.Logf("heap bytes per realization under strict exchange: 1×1 %.1f B, 1×2000 %.1f B", narrow, wide)
	if d := wide - narrow; d >= 64 || d <= -64 {
		t.Fatalf("heap bytes per realization depend on the matrix width: 1×1 %.1f B, 1×2000 %.1f B (differ by %.1f B, gate 64 B)",
			narrow, wide, d)
	}
}

// TestPeriodicLoopAllocationGate: a periodic run's realization loop —
// positioning the substream, zeroing the buffer, the kernel, the add,
// the block clock — allocates nothing per realization. One heap object
// per realization (a generator per repositioning, a closure, a boxed
// timing) fails this by two orders of magnitude; the once-per-run
// set-up and the final save are spread over L.
func TestPeriodicLoopAllocationGate(t *testing.T) {
	const L = 1_000_000
	cfg := Config{
		Nrow:       1,
		Ncol:       1,
		MaxSamples: L,
		Workers:    1,
		PassPeriod: time.Hour, // one push, at the end
		AverPeriod: time.Hour, // one save, at Finalize
		WorkDir:    t.TempDir(),
		Params:     rng.DefaultParams(),
	}
	factory := func(int) (Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			out[0] = src.Float64()
			return nil
		}, nil
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunFactory(context.Background(), cfg, factory)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.N != L {
		t.Fatalf("N = %d, want %d", res.Report.N, L)
	}
	perRealization := float64(after.Mallocs-before.Mallocs) / L
	t.Logf("heap objects per realization in a periodic 1×1 run: %.4f", perRealization)
	if perRealization >= 0.01 {
		t.Fatalf("%.4f heap objects per realization in a periodic run, gate 0.01", perRealization)
	}
}
