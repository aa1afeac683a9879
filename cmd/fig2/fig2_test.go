// Benchmarks regenerating the paper's evaluation.
//
// The paper's quantitative evaluation is Fig. 2 (panels a–d): the
// computer time T_comp(L) for M = 1…512 processors under strict
// per-realization exchange, on the 2-D SDE workload of Sec. 4. Absolute
// times belong to the 2011 Siberian Supercomputer Center cluster; the
// claims under reproduction are the shapes — T_comp linear in L,
// speedup proportional to M, no crossovers — which these benchmarks
// emit as custom metrics (sim-T(L=..,M=..) in simulated seconds, and
// measured seconds for the real-goroutine variants).
//
// Run them:
//
//	go test -run '^$' -bench . ./cmd/fig2
//
// See EXPERIMENTS.md for paper-vs-measured tables generated from these
// benchmarks and from the fig2 command itself.
package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"parmonc/internal/clustersim"
	"parmonc/internal/core"
	"parmonc/internal/sde"
)

// benchPanel runs one Fig. 2 panel on the cluster simulator and reports
// every (L, M) point as a custom metric in simulated seconds.
func benchPanel(b *testing.B, ms []int, ls []int64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			for _, l := range ls {
				res, err := clustersim.Simulate(clustersim.PaperParams(m), l)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.TCompSeconds, fmt.Sprintf("simsec/L%d/M%d", l, m))
				}
			}
		}
	}
}

// BenchmarkFig2a — Fig. 2a: M = 1, 8; L up to 1000.
func BenchmarkFig2a(b *testing.B) {
	benchPanel(b, []int{1, 8}, []int64{200, 400, 600, 800, 1000})
}

// BenchmarkFig2b — Fig. 2b: M = 8, 16, 32; L up to 7500.
func BenchmarkFig2b(b *testing.B) {
	benchPanel(b, []int{8, 16, 32}, []int64{1500, 3000, 4500, 6000, 7500})
}

// BenchmarkFig2c — Fig. 2c: M = 32, 64, 128; L up to 25000.
func BenchmarkFig2c(b *testing.B) {
	benchPanel(b, []int{32, 64, 128}, []int64{5000, 10000, 15000, 20000, 25000})
}

// BenchmarkFig2d — Fig. 2d: M = 128, 256, 512; L up to 75000.
func BenchmarkFig2d(b *testing.B) {
	benchPanel(b, []int{128, 256, 512}, []int64{15000, 30000, 45000, 60000, 75000})
}

// BenchmarkRealSpeedup measures actual wall time with goroutine workers
// on a scaled-down version of the paper's SDE workload (mesh 10⁻⁴ so a
// realization costs ~10 ms instead of 7.7 s), under the same strict
// exchange conditions — the laptop-scale validation of the Fig. 2
// shape. The observable speedup is bounded by the physical core count
// (reported as the "cores" metric): on a single-core host all M curves
// coincide and only the simulated-cluster benchmarks can show the
// paper's scaling.
func BenchmarkRealSpeedup(b *testing.B) {
	const L = 256
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Nrow: 100, Ncol: 2,
					MaxSamples:     L,
					Workers:        m,
					WorkDir:        b.TempDir(),
					StrictExchange: true,
					PassPeriod:     time.Second,
					AverPeriod:     time.Second,
				}
				_, err := core.RunFactory(context.Background(), cfg, func(int) (core.Realization, error) {
					return sde.PaperRealization(1e-4, 10.0, 100)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExchange compares the paper's periodic-exchange
// design against exchanging only at the end of the run (Sec. 2.2
// discusses why PARMONC rejects end-only exchange for operational
// reasons; the claim is that periodic exchange costs ~nothing).
func BenchmarkAblationExchange(b *testing.B) {
	const L = 512
	run := func(b *testing.B, strict bool, pass time.Duration) {
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				Nrow: 100, Ncol: 2,
				MaxSamples:     L,
				Workers:        4,
				WorkDir:        b.TempDir(),
				StrictExchange: strict,
				PassPeriod:     pass,
				AverPeriod:     pass,
			}
			_, err := core.RunFactory(context.Background(), cfg, func(int) (core.Realization, error) {
				return sde.PaperRealization(1e-4, 10.0, 100)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-realization", func(b *testing.B) { run(b, true, time.Second) })
	b.Run("periodic-10ms", func(b *testing.B) { run(b, false, 10*time.Millisecond) })
	b.Run("end-only", func(b *testing.B) { run(b, false, time.Hour) })
}

// BenchmarkAblationStrictnessSim measures the same ablation on the
// cluster simulator at paper scale, where the message volume actually
// matters (512 processors, 15360 realizations).
func BenchmarkAblationStrictnessSim(b *testing.B) {
	for _, passEvery := range []int64{1, 10, 100} {
		b.Run(fmt.Sprintf("passEvery=%d", passEvery), func(b *testing.B) {
			p := clustersim.PaperParams(512)
			p.PassEvery = passEvery
			var last clustersim.Result
			for i := 0; i < b.N; i++ {
				res, err := clustersim.Simulate(p, 15360)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TCompSeconds, "simsec")
			b.ReportMetric(float64(last.Messages), "msgs")
		})
	}
}
