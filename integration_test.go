package parmonc_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parmonc"
	"parmonc/internal/rng"
	"parmonc/internal/store"
)

// TestLifecycleGenparamRunResumeManaver drives the complete user
// workflow of the paper in one flow: choose custom leap parameters with
// genparam, simulate, resume with a new seqnum, kill-and-recover with
// manaver, and confirm that every artifact on disk stays consistent.
func TestLifecycleGenparamRunResumeManaver(t *testing.T) {
	dir := t.TempDir()

	// 1. genparam: custom leaps written into the working directory.
	gp, err := rng.ComputeGenparam(100, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := rng.WriteGenparam(dir, gp); err != nil {
		t.Fatal(err)
	}

	realize := func(src *parmonc.Stream, out []float64) error {
		out[0] = src.Float64()
		return nil
	}
	cfg := parmonc.Config{
		Nrow: 1, Ncol: 1,
		MaxSamples:          3000,
		Workers:             3,
		WorkDir:             dir,
		PassPeriod:          time.Millisecond,
		AverPeriod:          2 * time.Millisecond,
		SaveWorkerSnapshots: true,
		StrictExchange:      true,
	}

	// 2. first run picks the genparam file up automatically.
	r1, err := parmonc.Run(context.Background(), cfg, realize)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Meta.Params.ExperimentLeapLog2 != 100 {
		t.Fatalf("run ignored genparam file: %+v", r1.Meta.Params)
	}
	if r1.Report.N != 3000 {
		t.Fatalf("N = %d", r1.Report.N)
	}

	// 3. resume with a fresh experiments subsequence.
	cfg.Resume = true
	cfg.SeqNum = 1
	r2, err := parmonc.Run(context.Background(), cfg, realize)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Report.N != 6000 {
		t.Fatalf("resumed N = %d, want 6000", r2.Report.N)
	}
	if diff := math.Abs(r2.Report.MeanAt(0, 0) - 0.5); diff > r2.Report.AbsErrAt(0, 0)*4/3 {
		t.Fatalf("pooled mean off: %g", r2.Report.MeanAt(0, 0))
	}

	// 4. simulate a crash before the second run's first save: rewind the
	// run image to the one the run start wrote (the resume base, no
	// shards), recover the second run's results from worker snapshots
	// via manaver.
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	img, err := d.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveCheckpoint(img.Base, img.Meta); err != nil {
		t.Fatal(err)
	}
	rep, err := parmonc.Manaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 6000 {
		t.Fatalf("manaver N = %d, want 6000", rep.N)
	}

	// 5. all paper-mandated files exist and the experiment log has both
	// runs.
	for _, name := range []string{store.FuncFile, store.FuncCIFile, store.FuncLogFile} {
		p := filepath.Join(dir, store.DataDir, store.ResultsDir, name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s", name)
		}
	}
	exps, err := d.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || !strings.Contains(exps[1], "mode=resumed") {
		t.Fatalf("experiment log: %v", exps)
	}
}

// TestLifecycleDistributedMatchesLocal runs the same job through the
// in-process driver and through the TCP cluster and checks that both
// estimates agree within combined error bounds (they use different
// processor substreams, so exact equality is not expected).
func TestLifecycleDistributedMatchesLocal(t *testing.T) {
	realize := func(src *parmonc.Stream, out []float64) error {
		a := src.Float64()
		out[0] = a * a // E α² = 1/3
		return nil
	}

	local, err := parmonc.Run(context.Background(), parmonc.Config{
		Nrow: 1, Ncol: 1,
		MaxSamples: 40000,
		Workers:    4,
		WorkDir:    t.TempDir(),
		PassPeriod: time.Millisecond,
		AverPeriod: 2 * time.Millisecond,
	}, realize)
	if err != nil {
		t.Fatal(err)
	}

	spec := parmonc.JobSpec{
		Nrow: 1, Ncol: 1,
		MaxSamples: 40000,
		Params:     parmonc.DefaultParams(),
		Gamma:      3,
		PassEvery:  500,
	}
	coord, err := parmonc.NewCoordinator(spec, parmonc.CoordinatorConfig{
		WorkDir:    t.TempDir(),
		AverPeriod: time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parmonc.RunWorker(ctx, coord.Addr(), parmonc.WorkerConfig{}, func(int) (parmonc.Realization, error) {
				return realize, nil
			})
		}()
	}
	remote, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	exact := 1.0 / 3
	for name, got := range map[string]float64{
		"local":       local.Report.MeanAt(0, 0),
		"distributed": remote.MeanAt(0, 0),
	} {
		if math.Abs(got-exact) > 0.01 {
			t.Errorf("%s estimate %g, want ≈ 1/3", name, got)
		}
	}
}

// TestLifecycleExperimentsPublicAPI exercises RunExperiments through the
// public surface.
func TestLifecycleExperimentsPublicAPI(t *testing.T) {
	cfg := parmonc.Config{
		Nrow: 1, Ncol: 1,
		MaxSamples: 2000,
		Workers:    2,
		WorkDir:    t.TempDir(),
		PassPeriod: time.Millisecond,
		AverPeriod: 2 * time.Millisecond,
	}
	res, err := parmonc.RunExperiments(context.Background(), cfg, []uint64{0, 1, 2, 3},
		func(int) (parmonc.Realization, error) {
			return func(src *parmonc.Stream, out []float64) error {
				out[0] = src.Float64()
				return nil
			}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined.N != 8000 {
		t.Fatalf("combined N = %d", res.Combined.N)
	}
	// The independent estimates must agree with each other within
	// combined 3σ bounds — the paper's validation-by-repetition.
	for i := 1; i < len(res.Reports); i++ {
		diff := math.Abs(res.Reports[i].MeanAt(0, 0) - res.Reports[0].MeanAt(0, 0))
		bound := res.Reports[i].AbsErrAt(0, 0) + res.Reports[0].AbsErrAt(0, 0)
		if diff > bound*4/3 {
			t.Errorf("experiments %d and 0 disagree: |Δ| = %g > %g", i, diff, bound)
		}
	}
}
