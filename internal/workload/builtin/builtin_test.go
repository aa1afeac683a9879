package builtin_test

import (
	"reflect"
	"testing"

	"parmonc/internal/rng"
	"parmonc/internal/workload"

	_ "parmonc/internal/workload/builtin"
)

// The 13 built-in workloads the CLI has always shipped.
var wantNames = []string{
	"branching", "chem", "coagulation", "density", "diffusion",
	"dirichlet", "dispersion", "dsmc", "ising", "mm1",
	"option", "pi", "transport",
}

func TestRegistryComplete(t *testing.T) {
	if got := workload.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("registry has %v, want %v", got, wantNames)
	}
}

// TestDefinitionsUsable exercises every registration end to end at its
// defaults: identity resolves, labels match the dimensions, the factory
// builds, and one realization fills a correctly-sized row with the same
// bits from the same substream.
func TestDefinitionsUsable(t *testing.T) {
	params := rng.DefaultParams()
	for _, d := range workload.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			id, err := d.Identity(nil)
			if err != nil {
				t.Fatal(err)
			}
			if id.Nrow <= 0 || id.Ncol <= 0 {
				t.Fatalf("default dims %d×%d", id.Nrow, id.Ncol)
			}
			if id.Digest == "" || id.Fingerprint() == d.Name {
				t.Fatalf("identity has no digest: %+v", id)
			}
			v := workload.Values(id.Params)
			if d.RowLabels != nil {
				if ls := d.RowLabels(v); len(ls) != id.Nrow {
					t.Fatalf("%d row labels for %d rows", len(ls), id.Nrow)
				}
			}
			if d.ColLabels != nil {
				if ls := d.ColLabels(v); len(ls) != id.Ncol {
					t.Fatalf("%d col labels for %d cols", len(ls), id.Ncol)
				}
			}
			factory, err := d.Factory(v)
			if err != nil {
				t.Fatal(err)
			}
			run := func() []float64 {
				realize, err := factory(1)
				if err != nil {
					t.Fatal(err)
				}
				src, err := rng.NewStream(params, rng.Coord{Processor: 1})
				if err != nil {
					t.Fatal(err)
				}
				out := make([]float64, id.Nrow*id.Ncol)
				if err := realize(src, out); err != nil {
					t.Fatal(err)
				}
				return out
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Fatalf("realization not reproducible from the same substream:\n%v\n%v", a, b)
			}
		})
	}
}

// TestParameterizedDims: dimensions follow the parameters they depend
// on, and the identity digest moves with every parameter change.
func TestParameterizedDims(t *testing.T) {
	cases := []struct {
		name       string
		overrides  workload.Values
		nrow, ncol int
	}{
		{"density", workload.Values{"bins": 7}, 1, 7},
		{"diffusion", workload.Values{"nout": 5}, 5, 2},
		{"mm1", workload.Values{"lambda": 0.8}, 1, 1},
	}
	for _, tc := range cases {
		d, err := workload.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.Identity(tc.overrides)
		if err != nil {
			t.Fatal(err)
		}
		if id.Nrow != tc.nrow || id.Ncol != tc.ncol {
			t.Fatalf("%s %v: dims %d×%d, want %d×%d",
				tc.name, tc.overrides, id.Nrow, id.Ncol, tc.nrow, tc.ncol)
		}
		base, err := d.Identity(nil)
		if err != nil {
			t.Fatal(err)
		}
		if id.Digest == base.Digest {
			t.Fatalf("%s: override %v did not change the digest", tc.name, tc.overrides)
		}
	}
}

// TestInvalidParametersRejected: scenario-package invariants that span
// several parameters surface as factory errors, not bad simulations.
func TestInvalidParametersRejected(t *testing.T) {
	cases := []struct {
		name      string
		overrides workload.Values
	}{
		{"mm1", workload.Values{"lambda": 2}},             // unstable: lambda >= mu
		{"transport", workload.Values{"sigma_s": 5}},      // sigma_s > sigma_t
		{"ising", workload.Values{"warmup": 100}},         // warmup >= sweeps
		{"density", workload.Values{"a": 5}},              // a >= b
		{"dirichlet", workload.Values{"x": 2, "y": 2}},    // point outside the disk
		{"dispersion", workload.Values{"dt": 5, "tl": 1}}, // dt > tl, unusable mesh
	}
	for _, tc := range cases {
		d, err := workload.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := d.Schema.Resolve(tc.overrides)
		if err != nil {
			continue // rejected even earlier, by the schema — fine
		}
		if _, err := d.Factory(v); err == nil {
			t.Errorf("%s with %v built a factory", tc.name, tc.overrides)
		}
	}
}

// BenchmarkRealization sweeps every registered workload's realization
// kernel at its schema defaults — one sub-benchmark per workload, no
// collector in the loop — so per-scenario simulation cost (the paper's
// τ, the per-realization time that sets where parallelism pays off) is
// measured for all of them, not only the kernels the bench ledger runs.
func BenchmarkRealization(b *testing.B) {
	for _, d := range workload.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			id, err := d.Identity(nil)
			if err != nil {
				b.Fatal(err)
			}
			factory, err := d.Factory(workload.Values(id.Params))
			if err != nil {
				b.Fatal(err)
			}
			realize, err := factory(1)
			if err != nil {
				b.Fatal(err)
			}
			src, err := rng.NewStream(rng.DefaultParams(), rng.Coord{Processor: 1})
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, id.Nrow*id.Ncol)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = 0
				}
				if err := realize(src, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
