package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// uniformMean is a trivial realization: a single uniform draw. Its
// expectation is 1/2 and variance 1/12.
func uniformMean(src *rng.Stream, out []float64) error {
	out[0] = src.Float64()
	return nil
}

// sumOfTwo fills a 1×2 matrix: [α, α²].
func sumOfTwo(src *rng.Stream, out []float64) error {
	a := src.Float64()
	out[0] = a
	out[1] = a * a
	return nil
}

func fastCfg(dir string) Config {
	return Config{
		Nrow:       1,
		Ncol:       1,
		MaxSamples: 4000,
		Workers:    4,
		WorkDir:    dir,
		PassPeriod: time.Millisecond,
		AverPeriod: 2 * time.Millisecond,
	}
}

func TestRunComputesUniformMean(t *testing.T) {
	res, err := Run(context.Background(), fastCfg(t.TempDir()), uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.N != 4000 {
		t.Fatalf("N = %d, want 4000", res.Report.N)
	}
	if res.NewSamples != 4000 {
		t.Fatalf("NewSamples = %d", res.NewSamples)
	}
	mean := res.Report.MeanAt(0, 0)
	if diff := math.Abs(mean - 0.5); diff > res.Report.AbsErrAt(0, 0) {
		t.Fatalf("|mean-0.5| = %g exceeds 3σ bound %g", diff, res.Report.AbsErrAt(0, 0))
	}
	if v := res.Report.VarAt(0, 0); math.Abs(v-1.0/12) > 0.01 {
		t.Fatalf("var = %g, want ≈ 1/12", v)
	}
}

func TestRunDeterministicAcrossSchedules(t *testing.T) {
	// Two identical runs draw exactly the same realizations (static
	// quota split + per-realization substreams), so the moments agree to
	// floating-point reassociation noise: snapshot arrival order at the
	// collector varies with scheduling, and float addition is not
	// associative.
	cfg := fastCfg(t.TempDir())
	r1, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WorkDir = t.TempDir()
	r2, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Report.N != r2.Report.N {
		t.Fatalf("volumes differ: %d vs %d", r1.Report.N, r2.Report.N)
	}
	if d := math.Abs(r1.Report.MeanAt(0, 0) - r2.Report.MeanAt(0, 0)); d > 1e-12 {
		t.Fatalf("means differ by %g: %.17g vs %.17g", d, r1.Report.MeanAt(0, 0), r2.Report.MeanAt(0, 0))
	}
	if d := math.Abs(r1.Report.VarAt(0, 0) - r2.Report.VarAt(0, 0)); d > 1e-12 {
		t.Fatalf("variances differ by %g", d)
	}
}

func TestRunMatchesSequentialReference(t *testing.T) {
	// The parallel result must equal a hand-rolled sequential loop over
	// the same substreams — formula (4) exactness, not just statistical
	// agreement.
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 100
	cfg.Workers = 3
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}

	ref := stat.New(1, 1)
	params := rng.DefaultParams()
	// 100 realizations over 3 workers → leases of ⌈100/3⌉ = 34 on
	// processor subsequences 1, 2, 3 — the same partition the driver
	// computes, enumerated sequentially.
	for _, l := range collect.PartitionLeases(100, 34) {
		s, err := rng.NewStream(params, rng.Coord{
			Experiment: cfg.SeqNum, Processor: l.Proc, Realization: l.Start,
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < l.Count; k++ {
			if k > 0 {
				if err := s.NextRealization(); err != nil {
					t.Fatal(err)
				}
			}
			out := []float64{0}
			if err := uniformMean(s, out); err != nil {
				t.Fatal(err)
			}
			ref.Add(out)
		}
	}
	want := ref.Report(3)
	if got := res.Report.MeanAt(0, 0); math.Abs(got-want.MeanAt(0, 0)) > 1e-13 {
		t.Fatalf("mean %.17g, reference %.17g", got, want.MeanAt(0, 0))
	}
	if got := res.Report.VarAt(0, 0); math.Abs(got-want.VarAt(0, 0)) > 1e-13 {
		t.Fatalf("var %.17g, reference %.17g", got, want.VarAt(0, 0))
	}
}

func TestRunWritesResultFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), fastCfg(dir), uniformMean); err != nil {
		t.Fatal(err)
	}
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	nrow, ncol, vals, err := d.LoadMeans()
	if err != nil {
		t.Fatal(err)
	}
	if nrow != 1 || ncol != 1 {
		t.Fatalf("dims %dx%d", nrow, ncol)
	}
	if math.Abs(vals[0]-0.5) > 0.05 {
		t.Fatalf("saved mean %g", vals[0])
	}
	exps, err := d.Experiments()
	if err != nil || len(exps) != 1 {
		t.Fatalf("experiment log: %v, %v", exps, err)
	}
}

func TestResumeMergesPreviousRun(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.MaxSamples = 1000
	cfg.SeqNum = 0
	r1, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	cfg.SeqNum = 1
	r2, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Report.N != 2000 {
		t.Fatalf("resumed N = %d, want 2000", r2.Report.N)
	}
	if r2.NewSamples != 1000 {
		t.Fatalf("NewSamples = %d, want 1000", r2.NewSamples)
	}
	// The merged mean must be the equally-weighted average of the two
	// runs' sums, since both have volume 1000.
	run2only := (r2.Report.MeanAt(0, 0)*2000 - r1.Report.MeanAt(0, 0)*1000) / 1000
	if run2only <= 0 || run2only >= 1 {
		t.Fatalf("implied second-run mean %g out of range", run2only)
	}
}

func TestResumeRejectsSameSeqNum(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	if _, err := Run(context.Background(), cfg, uniformMean); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true // SeqNum unchanged
	if _, err := Run(context.Background(), cfg, uniformMean); err == nil {
		t.Fatal("expected same-seqnum resume to be rejected")
	}
}

func TestResumeRejectsDimensionChange(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	if _, err := Run(context.Background(), cfg, uniformMean); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	cfg.SeqNum = 1
	cfg.Ncol = 2
	if _, err := Run(context.Background(), cfg, sumOfTwo); err == nil {
		t.Fatal("expected dimension-change resume to be rejected")
	}
}

func TestResumeWithoutPreviousRun(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Resume = true
	cfg.SeqNum = 1
	if _, err := Run(context.Background(), cfg, uniformMean); err == nil {
		t.Fatal("expected missing-checkpoint error")
	}
}

func TestFreshRunClearsOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.MaxSamples = 500
	if _, err := Run(context.Background(), cfg, uniformMean); err != nil {
		t.Fatal(err)
	}
	// Second run with res = 0 starts from scratch.
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.N != 500 {
		t.Fatalf("N = %d, want 500 (old results must be discarded)", res.Report.N)
	}
}

func TestRealizationErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	cfg := fastCfg(t.TempDir())
	_, err := Run(context.Background(), cfg, func(src *rng.Stream, out []float64) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
}

func TestContextCancellationGraceful(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 0 // unbounded: the "endless" mode
	done := make(chan struct{})
	var res Result
	var runErr error
	go func() {
		res, runErr = Run(ctx, cfg, func(src *rng.Stream, out []float64) error {
			out[0] = src.Float64()
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if res.Report.N == 0 {
		t.Fatal("no samples accumulated before cancellation")
	}
}

func TestMatrixRealization(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Ncol = 2
	cfg.MaxSamples = 20000
	res, err := Run(context.Background(), cfg, sumOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	// E α = 1/2, E α² = 1/3.
	if got := res.Report.MeanAt(0, 0); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("E α = %g", got)
	}
	if got := res.Report.MeanAt(0, 1); math.Abs(got-1.0/3) > 0.02 {
		t.Fatalf("E α² = %g", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nrow: 0, Ncol: 1},
		{Nrow: 1, Ncol: 0},
		{Nrow: 1, Ncol: 1, Workers: -1},
		{Nrow: 1, Ncol: 1, PassPeriod: -time.Second},
		{Nrow: 1, Ncol: 1, AverPeriod: -time.Second},
		{Nrow: 1, Ncol: 1, Gamma: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg, uniformMean); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	if _, err := Run(context.Background(), Config{Nrow: 1, Ncol: 1, MaxSamples: 1}, nil); err == nil {
		t.Error("nil realization: expected error")
	}
}

func TestWorkersExceedingHierarchyRejected(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 1 << 20 // > 2^17 processors
	if _, err := Run(context.Background(), cfg, uniformMean); err == nil {
		t.Fatal("expected hierarchy capacity error")
	}
}

// TestStrictExchangeMode: under strict exchange every realization is
// its own timed block and its own collector push, so a run of L makes
// exactly L pushes and L realization-time observations. A periodic run
// times realizations in blocks, and the realization counter still adds
// up to L.
func TestStrictExchangeMode(t *testing.T) {
	const L = 2000
	for _, strict := range []bool{true, false} {
		cfg := fastCfg(t.TempDir())
		cfg.StrictExchange = strict
		cfg.MaxSamples = L
		cfg.Workers = 2
		cfg.Registry = obs.NewRegistry()
		res, err := Run(context.Background(), cfg, uniformMean)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.N != L {
			t.Fatalf("strict=%v: N = %d, want %d", strict, res.Report.N, L)
		}
		m := cfg.Registry.Snapshot()
		if got := m["parmonc_realizations_total"]; got != L {
			t.Fatalf("strict=%v: parmonc_realizations_total = %v, want %d", strict, got, L)
		}
		if !strict {
			continue
		}
		if res.Metrics.Pushes != L {
			t.Fatalf("strict: %d collector pushes, want %d", res.Metrics.Pushes, L)
		}
		if got := m["parmonc_realization_seconds_count"]; got != L {
			t.Fatalf("strict: %v realization-time observations, want one per realization (%d)", got, L)
		}
	}
}

func TestManaverReconstructsResults(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.SaveWorkerSnapshots = true
	cfg.StrictExchange = true // every realization lands in a worker file
	cfg.MaxSamples = 400
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the story: rewind the run image to the one the run start
	// wrote (as if the job died before its first save), then recover
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
	rep, err := Manaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != res.Report.N {
		t.Fatalf("manaver N = %d, run N = %d", rep.N, res.Report.N)
	}
	if d := math.Abs(rep.MeanAt(0, 0) - res.Report.MeanAt(0, 0)); d > 1e-13 {
		t.Fatalf("manaver mean %.17g, run mean %.17g", rep.MeanAt(0, 0), res.Report.MeanAt(0, 0))
	}
	// The rebuilt checkpoint supports resumption.
	if _, _, err := d.LoadCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestManaverWithoutRun(t *testing.T) {
	if _, err := Manaver(t.TempDir()); err == nil {
		t.Fatal("expected error when nothing has run")
	}
}

// runFiles reads the files Manaver rewrites: the results and the
// collector checkpoint.
func runFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, p := range []string{
		filepath.Join(dir, store.DataDir, store.ResultsDir, store.FuncFile),
		filepath.Join(dir, store.DataDir, store.ResultsDir, store.FuncCIFile),
		filepath.Join(dir, store.DataDir, store.ResultsDir, store.FuncLogFile),
		filepath.Join(dir, store.DataDir, store.CheckpointFile),
	} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = b
	}
	return files
}

// TestManaverRefusesToMoveResultsBackwards: with nothing to average (a
// run that saved no worker files) or fewer realizations in the worker
// files than the checkpoint already holds, manaver must fail and leave
// the finished run's results and checkpoint byte-identical.
func TestManaverRefusesToMoveResultsBackwards(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wsnap   bool
		prepare func(t *testing.T, dir string)
	}{
		{name: "no-worker-files"},
		{name: "fewer-than-saved", wsnap: true, prepare: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, store.DataDir, store.WorkersDir, "worker-000000.dat")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := fastCfg(dir)
			cfg.MaxSamples = 500
			cfg.SaveWorkerSnapshots = tc.wsnap
			cfg.StrictExchange = tc.wsnap // every realization lands in a worker file
			res, err := Run(context.Background(), cfg, uniformMean)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.N != 500 {
				t.Fatalf("run N = %d", res.Report.N)
			}
			if tc.prepare != nil {
				tc.prepare(t, dir)
			}
			before := runFiles(t, dir)
			if rep, err := Manaver(dir); err == nil {
				t.Fatalf("manaver succeeded with N = %d, want an error", rep.N)
			}
			after := runFiles(t, dir)
			for p, b := range before {
				if !bytes.Equal(after[p], b) {
					t.Errorf("manaver rewrote %s", filepath.Base(p))
				}
			}
		})
	}
}

// TestManaverAfterResumeCountsOnlyTheResumedRun: a resumed run with
// fewer workers than its predecessor must not leave the predecessor's
// worker files for manaver to add on top of the resumed base, and a
// worker file from another experiments subsequence is rejected.
func TestManaverAfterResumeCountsOnlyTheResumedRun(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.SaveWorkerSnapshots = true
	cfg.StrictExchange = true
	cfg.Workers = 3
	cfg.MaxSamples = 600
	if _, err := Run(context.Background(), cfg, uniformMean); err != nil {
		t.Fatal(err)
	}
	workers := filepath.Join(dir, store.DataDir, store.WorkersDir)
	stale, err := os.ReadFile(filepath.Join(workers, "worker-000000.dat"))
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	cfg.SeqNum = 1
	cfg.Workers = 1
	cfg.MaxSamples = 100
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.N != 700 {
		t.Fatalf("resumed N = %d, want 700", res.Report.N)
	}
	rep, err := Manaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != res.Report.N {
		t.Fatalf("manaver N = %d, resumed run N = %d", rep.N, res.Report.N)
	}

	// A leftover file from the first run (SeqNum 0) beside the resumed
	// run's base (SeqNum 1) is refused, not merged.
	if err := os.WriteFile(filepath.Join(workers, "worker-000009.dat"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runFiles(t, dir)
	if rep, err := Manaver(dir); err == nil {
		t.Fatalf("manaver merged a worker file from another run: N = %d", rep.N)
	}
	after := runFiles(t, dir)
	for p, b := range before {
		if !bytes.Equal(after[p], b) {
			t.Errorf("manaver rewrote %s", filepath.Base(p))
		}
	}
}

func TestWorkersIdleWhenQuotaSmall(t *testing.T) {
	// More workers than samples: some do nothing, run still completes.
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 8
	cfg.MaxSamples = 3
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.N != 3 {
		t.Fatalf("N = %d, want 3", res.Report.N)
	}
}

func TestCustomParamsRespected(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	var err error
	cfg.Params, err = rng.NewParams(60, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.Params.ExperimentLeapLog2 != 60 {
		t.Fatalf("params not propagated: %+v", res.Meta.Params)
	}
}

func TestOnSaveProgressReported(t *testing.T) {
	var mu sync.Mutex
	var progresses []Progress
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 2000
	cfg.OnSave = func(p Progress) {
		mu.Lock()
		progresses = append(progresses, p)
		mu.Unlock()
	}
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(progresses) == 0 {
		t.Fatal("OnSave never called")
	}
	last := progresses[len(progresses)-1]
	if last.N != res.Report.N {
		t.Fatalf("final progress N = %d, result N = %d", last.N, res.Report.N)
	}
	if last.MaxAbsErr != res.Report.MaxAbsErr {
		t.Fatal("final progress error bound mismatch")
	}
	for i := 1; i < len(progresses); i++ {
		if progresses[i].N < progresses[i-1].N {
			t.Fatal("progress N went backwards")
		}
	}
}

func TestErrorControlledTermination(t *testing.T) {
	// The paper's motivation for periodic exchange: stop once the
	// relative error is small enough, instead of a fixed sample count.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const target = 1.0 // percent
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 0 // unbounded: accuracy decides
	cfg.AverPeriod = time.Millisecond
	cfg.OnSave = func(p Progress) {
		if p.N > 100 && p.MaxRelErr < target {
			cancel()
		}
	}
	res, err := Run(ctx, cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run not stopped by accuracy control")
	}
	if res.Report.MaxRelErr >= 2*target {
		t.Fatalf("final rel err %g%% far above target %g%%", res.Report.MaxRelErr, target)
	}
}

func TestRealizationPanicBecomesError(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	_, err := Run(context.Background(), cfg, func(src *rng.Stream, out []float64) error {
		panic("user bug")
	})
	if err == nil {
		t.Fatal("expected error from panicking realization")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "user bug") {
		t.Fatalf("error %v does not describe the panic", err)
	}
}

func TestRealizationPanicAfterProgressStillErrors(t *testing.T) {
	// Panic on the 50th realization of one worker: results so far are
	// saved, the run reports the failure.
	var count atomic.Int64
	cfg := fastCfg(t.TempDir())
	cfg.Workers = 2
	_, err := Run(context.Background(), cfg, func(src *rng.Stream, out []float64) error {
		if count.Add(1) == 50 {
			panic("late failure")
		}
		out[0] = src.Float64()
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestStableMomentsSurvivesIllConditionedWorkload(t *testing.T) {
	// Mean 10^9, σ = 10^-3: raw sums lose the variance entirely; the
	// stable collector recovers it through the full driver. Workers
	// still ship raw sums, so keep per-push volumes small enough that
	// the worker-side sums stay benign (strict exchange: one realization
	// per push).
	realize := func(src *rng.Stream, out []float64) error {
		// Deterministic ±σ noise around a huge mean, driven by the
		// stream so every realization differs.
		if src.Float64() < 0.5 {
			out[0] = 1e9 - 1e-3
		} else {
			out[0] = 1e9 + 1e-3
		}
		return nil
	}
	base := fastCfg(t.TempDir())
	base.MaxSamples = 20000
	base.StrictExchange = true

	stable := base
	stable.WorkDir = t.TempDir()
	stable.StableMoments = true

	resNaive, err := Run(context.Background(), base, realize)
	if err != nil {
		t.Fatal(err)
	}
	resStable, err := Run(context.Background(), stable, realize)
	if err != nil {
		t.Fatal(err)
	}
	wantVar := 1e-6 // (±10^-3)² with equal probability
	gotStable := resStable.Report.VarAt(0, 0)
	if math.Abs(gotStable-wantVar)/wantVar > 0.05 {
		t.Fatalf("stable variance %g, want %g", gotStable, wantVar)
	}
	// The naive pipeline must be visibly worse on this data (typically
	// clamped to zero); if it ever matches, the test data is too easy.
	gotNaive := resNaive.Report.VarAt(0, 0)
	if math.Abs(gotNaive-wantVar)/wantVar < 0.05 {
		t.Fatalf("naive variance %g unexpectedly accurate; strengthen the test", gotNaive)
	}
}

func TestStableMomentsMatchesNaiveOnBenignData(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.StableMoments = true
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Report.MeanAt(0, 0)-0.5) > res.Report.AbsErrAt(0, 0)*4/3 {
		t.Fatalf("stable mean %g", res.Report.MeanAt(0, 0))
	}
	if math.Abs(res.Report.VarAt(0, 0)-1.0/12) > 0.01 {
		t.Fatalf("stable variance %g", res.Report.VarAt(0, 0))
	}
	// Resume from a stable run must work (shared checkpoint format).
	cfg.Resume = true
	cfg.SeqNum = 1
	res2, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.N != 2*res.Report.N {
		t.Fatalf("resumed N = %d", res2.Report.N)
	}
}

func TestResumeIntoStableMoments(t *testing.T) {
	// A raw-sum run's checkpoint must resume into a Welford/Chan
	// collector: the base moments arrive as one snapshot merge into the
	// stable accumulator, the paper's res = 1 on top of the shared
	// checkpoint format.
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.MaxSamples = 1000
	r1, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	cfg.StableMoments = true
	cfg.SeqNum = 1
	r2, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Report.N != 2000 || r2.NewSamples != 1000 {
		t.Fatalf("N = %d, NewSamples = %d", r2.Report.N, r2.NewSamples)
	}
	if r2.Metrics.ResumedSamples != r1.Report.N {
		t.Fatalf("ResumedSamples = %d, want %d", r2.Metrics.ResumedSamples, r1.Report.N)
	}
	if math.Abs(r2.Report.MeanAt(0, 0)-0.5) > r2.Report.AbsErrAt(0, 0)*4/3 {
		t.Fatalf("resumed stable mean %g", r2.Report.MeanAt(0, 0))
	}
	if math.Abs(r2.Report.VarAt(0, 0)-1.0/12) > 0.01 {
		t.Fatalf("resumed stable variance %g", r2.Report.VarAt(0, 0))
	}
}

func TestMetricsUnderStrictExchange(t *testing.T) {
	// Under the strictest exchange every realization is one push, so
	// the engine's counters are exactly predictable: quota pushes, all
	// merged, none rejected, one worker-snapshot write per push.
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 100
	cfg.Workers = 2
	cfg.StrictExchange = true
	cfg.SaveWorkerSnapshots = true
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Pushes != 100 || m.Merges != 100 {
		t.Fatalf("pushes/merges = %d/%d, want 100/100", m.Pushes, m.Merges)
	}
	if m.RejectedSnapshots != 0 {
		t.Fatalf("RejectedSnapshots = %d", m.RejectedSnapshots)
	}
	if m.WorkerSnapshots != 100 {
		t.Fatalf("WorkerSnapshots = %d", m.WorkerSnapshots)
	}
	if m.RegisteredWorkers != 2 {
		t.Fatalf("RegisteredWorkers = %d", m.RegisteredWorkers)
	}
	if m.Saves < 1 {
		t.Fatalf("Saves = %d, want >= 1 (final save)", m.Saves)
	}
}

func TestCollectorFailureDoesNotDeadlock(t *testing.T) {
	// Make the worker-snapshot directory unwritable so the collector
	// fails mid-run; the run must return the error promptly rather than
	// leaving workers blocked on the collector channel.
	dir := t.TempDir()
	if _, err := store.Open(dir); err != nil {
		t.Fatal(err)
	}
	// Replace the workers directory with a regular file so snapshot
	// writes fail even when running as root.
	workersDir := dir + "/parmonc_data/workers"
	if err := os.RemoveAll(workersDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(workersDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := fastCfg(dir)
	cfg.SaveWorkerSnapshots = true
	cfg.StrictExchange = true
	cfg.MaxSamples = 2000

	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = Run(context.Background(), cfg, uniformMean)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("run deadlocked after collector failure")
	}
	if runErr == nil {
		t.Fatal("expected collector error")
	}
}

func TestRunStopRuleEndsUnboundedRun(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.MaxSamples = 0 // unbounded: the stop rule decides
	cfg.Stop = func(p collect.Progress) bool { return p.N >= 2000 }

	done := make(chan struct{})
	var res Result
	var err error
	go func() {
		defer close(done)
		res, err = Run(context.Background(), cfg, uniformMean)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stop rule never ended the unbounded run")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("stop-rule completion reported as interrupted")
	}
	if res.Report.N < 2000 {
		t.Fatalf("run stopped at N = %d, before the rule's threshold", res.Report.N)
	}
}
