package core

import (
	"context"
	"math"
	"testing"
)

func uniformFactory(int) (Realization, error) {
	return uniformMean, nil
}

func TestRunExperimentsIndependentEstimates(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 3000
	res, err := RunExperiments(context.Background(), cfg, []uint64{0, 1, 2}, uniformFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("got %d reports", len(res.Reports))
	}
	// Combined volume is the sum.
	if res.Combined.N != 9000 {
		t.Fatalf("combined N = %d, want 9000", res.Combined.N)
	}
	// Each independent estimate must contain the true mean within its
	// own 3σ bound, and the estimates must not be identical (they come
	// from disjoint subsequences).
	means := map[float64]bool{}
	for i, rep := range res.Reports {
		m := rep.MeanAt(0, 0)
		if diff := math.Abs(m - 0.5); diff > rep.AbsErrAt(0, 0)*4/3 {
			t.Errorf("experiment %d: |mean-1/2| = %g exceeds bound %g", i, diff, rep.AbsErrAt(0, 0))
		}
		if means[m] {
			t.Errorf("experiments produced identical means %g — subsequences overlap?", m)
		}
		means[m] = true
	}
	// Pooled mean = volume-weighted average of the per-experiment means.
	var want float64
	for _, rep := range res.Reports {
		want += rep.MeanAt(0, 0) * float64(rep.N)
	}
	want /= float64(res.Combined.N)
	if math.Abs(res.Combined.MeanAt(0, 0)-want) > 1e-12 {
		t.Fatalf("combined mean %g, weighted average %g", res.Combined.MeanAt(0, 0), want)
	}
	// Pooling over 3× the volume tightens the bound by about √3.
	if res.Combined.AbsErrAt(0, 0) >= res.Reports[0].AbsErrAt(0, 0) {
		t.Fatal("combined error bound not tighter than single experiment")
	}
}

func TestRunExperimentsValidation(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	if _, err := RunExperiments(context.Background(), cfg, nil, uniformFactory); err == nil {
		t.Error("empty seqnums accepted")
	}
	if _, err := RunExperiments(context.Background(), cfg, []uint64{1, 1}, uniformFactory); err == nil {
		t.Error("duplicate seqnums accepted")
	}
	cfg.Resume = true
	if _, err := RunExperiments(context.Background(), cfg, []uint64{0, 1}, uniformFactory); err == nil {
		t.Error("resume accepted")
	}
}

func TestRunExperimentsSeparateDirectories(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.MaxSamples = 100
	cfg.SaveWorkerSnapshots = true // manaver's input
	if _, err := RunExperiments(context.Background(), cfg, []uint64{5, 9}, uniformFactory); err != nil {
		t.Fatal(err)
	}
	for _, sq := range []string{"experiment-0005", "experiment-0009"} {
		if _, err := Manaver(dir + "/" + sq); err != nil {
			t.Errorf("experiment dir %s not usable: %v", sq, err)
		}
	}
}
