package store

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parmonc/internal/rng"
	"parmonc/internal/stat"
)

func testMeta() RunMeta {
	return RunMeta{
		SeqNum:    2,
		Nrow:      2,
		Ncol:      3,
		MaxSV:     1000,
		Workers:   4,
		Params:    rng.DefaultParams(),
		Gamma:     3,
		StartedAt: time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC),
	}
}

func testAccumulator(t *testing.T) *stat.Accumulator {
	t.Helper()
	a := stat.New(2, 3)
	rows := [][]float64{
		{1, 2, 3, 4, 5, 6},
		{2, 3, 4, 5, 6, 7},
		{0, 1, 2, 3, 4, 5},
	}
	for _, r := range rows {
		if err := a.AddTimed(r, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestOpenCreatesTree(t *testing.T) {
	work := t.TempDir()
	if _, err := Open(work); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(work, DataDir),
		filepath.Join(work, DataDir, ResultsDir),
		filepath.Join(work, DataDir, WorkersDir),
	} {
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			t.Fatalf("missing directory %s: %v", p, err)
		}
	}
}

func TestSaveResultsWritesThreeFiles(t *testing.T) {
	work := t.TempDir()
	d, err := Open(work)
	if err != nil {
		t.Fatal(err)
	}
	rep := testAccumulator(t).Report(3)
	if err := d.SaveResults(rep, testMeta()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{FuncFile, FuncCIFile, FuncLogFile} {
		p := filepath.Join(work, DataDir, ResultsDir, name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestLoadMeansRoundTrip(t *testing.T) {
	work := t.TempDir()
	d, err := Open(work)
	if err != nil {
		t.Fatal(err)
	}
	rep := testAccumulator(t).Report(3)
	if err := d.SaveResults(rep, testMeta()); err != nil {
		t.Fatal(err)
	}
	nrow, ncol, vals, err := d.LoadMeans()
	if err != nil {
		t.Fatal(err)
	}
	if nrow != 2 || ncol != 3 {
		t.Fatalf("dims %dx%d, want 2x3", nrow, ncol)
	}
	for i, v := range vals {
		if math.Abs(v-rep.Mean[i]) > 1e-15 {
			t.Fatalf("mean[%d] = %g, want %g", i, v, rep.Mean[i])
		}
	}
}

func TestFuncCIContents(t *testing.T) {
	work := t.TempDir()
	d, _ := Open(work)
	rep := testAccumulator(t).Report(3)
	if err := d.SaveResults(rep, testMeta()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(work, DataDir, ResultsDir, FuncCIFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// Header + 6 entries.
	if len(lines) != 7 {
		t.Fatalf("func_ci.dat has %d lines, want 7", len(lines))
	}
	if !strings.HasPrefix(lines[0], "#") {
		t.Fatal("missing header")
	}
	// Each data line: i j mean abs rel var = 6 fields.
	for _, l := range lines[1:] {
		if got := len(strings.Fields(l)); got != 6 {
			t.Fatalf("line %q has %d fields, want 6", l, got)
		}
	}
}

func TestFuncLogContents(t *testing.T) {
	work := t.TempDir()
	d, _ := Open(work)
	rep := testAccumulator(t).Report(3)
	if err := d.SaveResults(rep, testMeta()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(work, DataDir, ResultsDir, FuncLogFile))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"total_sample_volume        3",
		"experiment_seqnum          2",
		"workers                    4",
		"mean_time_per_realization  10ms",
		"leap_exponents             ne=115 np=98 nr=43",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("func_log.dat missing %q;\n%s", want, text)
		}
	}
}

func TestSaveResultsDimensionMismatch(t *testing.T) {
	d, _ := Open(t.TempDir())
	rep := stat.New(1, 1).Report(3)
	if err := d.SaveResults(rep, testMeta()); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	d, _ := Open(t.TempDir())
	a := testAccumulator(t)
	meta := testMeta()
	if err := d.SaveCheckpoint(a.Snapshot(), meta); err != nil {
		t.Fatal(err)
	}
	snap, m, err := d.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m.SeqNum != meta.SeqNum || m.Nrow != meta.Nrow || m.Ncol != meta.Ncol {
		t.Fatalf("meta lost: %+v", m)
	}
	restored, err := stat.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	ra, rr := a.Report(3), restored.Report(3)
	for i := range ra.Mean {
		if ra.Mean[i] != rr.Mean[i] {
			t.Fatal("checkpoint lost precision")
		}
	}
}

func TestLoadCheckpointMissing(t *testing.T) {
	d, _ := Open(t.TempDir())
	if _, _, err := d.LoadCheckpoint(); !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}

func TestLoadCheckpointCorrupt(t *testing.T) {
	d, _ := Open(t.TempDir())
	if err := os.WriteFile(d.CheckpointPath(), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.LoadCheckpoint(); err == nil || os.IsNotExist(err) {
		t.Fatalf("want corruption error, got %v", err)
	}
}

func TestWorkerSnapshots(t *testing.T) {
	d, _ := Open(t.TempDir())
	meta := testMeta()
	for w := 0; w < 3; w++ {
		a := stat.New(2, 3)
		row := make([]float64, 6)
		for j := range row {
			row[j] = float64(w + j)
		}
		a.Add(row)
		if err := d.SaveWorkerSnapshot(w, a.Snapshot(), meta); err != nil {
			t.Fatal(err)
		}
	}
	snaps, metas, err := d.LoadWorkerSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || len(metas) != 3 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	// Sorted by worker id: snapshot w has Sum[0] = w.
	for w, s := range snaps {
		if s.Worker != w || s.Snap.Sum[0] != float64(w) {
			t.Fatalf("snapshot %d is worker %d with Sum[0]=%g", w, s.Worker, s.Snap.Sum[0])
		}
	}
	if err := d.RemoveWorkerSnapshots(); err != nil {
		t.Fatal(err)
	}
	snaps, _, err = d.LoadWorkerSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatal("snapshots survive removal")
	}
}

func TestSaveWorkerSnapshotNegativeID(t *testing.T) {
	d, _ := Open(t.TempDir())
	if err := d.SaveWorkerSnapshot(-1, stat.New(1, 1).Snapshot(), testMeta()); err == nil {
		t.Fatal("expected error")
	}
}

// A cumulative sum can overflow to ±Inf though every push was finite;
// the write must fail loudly rather than leave a file that
// LoadWorkerSnapshots rejects when manaver needs it.
func TestSaveWorkerSnapshotRejectsNonFinite(t *testing.T) {
	d, _ := Open(t.TempDir())
	a := stat.New(1, 2)
	a.Add([]float64{1, 2})
	v := a.View()
	v.Sum[1] = math.Inf(1)
	if err := d.SaveWorkerSnapshot(0, v, testMeta()); err == nil {
		t.Fatal("expected error for a non-finite moment")
	}
	if snaps, _, err := d.LoadWorkerSnapshots(); err != nil || len(snaps) != 0 {
		t.Fatalf("a rejected snapshot left %d files behind (err %v)", len(snaps), err)
	}
}

func TestExperimentLog(t *testing.T) {
	d, _ := Open(t.TempDir())
	meta := testMeta()
	if err := d.AppendExperiment(meta, false); err != nil {
		t.Fatal(err)
	}
	meta.SeqNum = 3
	if err := d.AppendExperiment(meta, true); err != nil {
		t.Fatal(err)
	}
	lines, err := d.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "seqnum=2") || !strings.Contains(lines[0], "mode=new") {
		t.Errorf("line 0: %q", lines[0])
	}
	if !strings.Contains(lines[1], "seqnum=3") || !strings.Contains(lines[1], "mode=resumed") {
		t.Errorf("line 1: %q", lines[1])
	}
}

func TestExperimentsEmptyDir(t *testing.T) {
	d, _ := Open(t.TempDir())
	lines, err := d.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if lines != nil {
		t.Fatalf("got %v", lines)
	}
}

func TestMetaValidate(t *testing.T) {
	good := testMeta()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*RunMeta){
		func(m *RunMeta) { m.Nrow = 0 },
		func(m *RunMeta) { m.Ncol = -1 },
		func(m *RunMeta) { m.MaxSV = -1 },
		func(m *RunMeta) { m.Workers = -1 },
		func(m *RunMeta) { m.Gamma = 0 },
		func(m *RunMeta) { m.Params.RealizationLeapLog2 = 120 },
	}
	for i, mutate := range bad {
		m := testMeta()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	work := t.TempDir()
	d, _ := Open(work)
	if err := d.SaveResults(testAccumulator(t).Report(3), testMeta()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(work, DataDir, ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestAtomicWriteFailureRemovesTemp(t *testing.T) {
	work := t.TempDir()
	path := filepath.Join(work, "out.txt")
	injected := errors.New("injected write failure")
	err := atomicWrite(path, func(w *bufio.Writer) error {
		fmt.Fprintln(w, "partial content")
		return injected
	})
	if !errors.Is(err, injected) {
		t.Fatalf("expected injected error, got %v", err)
	}
	if _, statErr := os.Stat(path + ".tmp"); !os.IsNotExist(statErr) {
		t.Fatalf("orphan temp file left behind: stat err = %v", statErr)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("destination should not exist after failed write: stat err = %v", statErr)
	}

	// A failed write must not clobber an existing destination either.
	if err := os.WriteFile(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = atomicWrite(path, func(w *bufio.Writer) error { return injected })
	if !errors.Is(err, injected) {
		t.Fatalf("expected injected error, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "previous\n" {
		t.Fatalf("existing destination corrupted: %q, %v", got, err)
	}
	if _, statErr := os.Stat(path + ".tmp"); !os.IsNotExist(statErr) {
		t.Fatal("orphan temp file left behind on second failure")
	}
}

func TestLoadMeansErrors(t *testing.T) {
	work := t.TempDir()
	d, err := Open(work)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(work, DataDir, ResultsDir, FuncFile)

	// Ragged rows.
	if err := os.WriteFile(path, []byte("1 2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.LoadMeans(); err == nil {
		t.Error("ragged file accepted")
	}

	// Non-numeric value.
	if err := os.WriteFile(path, []byte("1 abc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.LoadMeans(); err == nil {
		t.Error("non-numeric value accepted")
	}

	// Missing file.
	os.Remove(path)
	if _, _, _, err := d.LoadMeans(); err == nil {
		t.Error("missing file accepted")
	}
}

// TestBaseCheckpointRoundTrip: the run base travels in the image beside
// the fold, and a folded-total checkpoint (SaveCheckpoint) is its own
// base.
func TestBaseCheckpointRoundTrip(t *testing.T) {
	d, _ := Open(t.TempDir())
	a := testAccumulator(t)
	meta := testMeta()
	if err := d.SaveCheckpoint(a.Snapshot(), meta); err != nil {
		t.Fatal(err)
	}
	img, err := d.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta.SeqNum != meta.SeqNum || img.Base.N != a.N() || img.Fold.N != a.N() || len(img.Shards) != 0 {
		t.Fatal("base checkpoint round trip lost data")
	}
}

func TestSaveResultsWithInfiniteRelErr(t *testing.T) {
	// A zero-mean noisy entry yields +Inf relative error; the files must
	// still be written and the means reloadable.
	d, _ := Open(t.TempDir())
	a := stat.New(1, 1)
	a.Add([]float64{1})
	a.Add([]float64{-1})
	meta := testMeta()
	meta.Nrow, meta.Ncol = 1, 1
	if err := d.SaveResults(a.Report(3), meta); err != nil {
		t.Fatal(err)
	}
	_, _, vals, err := d.LoadMeans()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 0 {
		t.Fatalf("mean %g", vals[0])
	}
}
