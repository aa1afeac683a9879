// Package store implements the PARMONC on-disk layout (Sec. 3.6 of the
// paper). When a simulation runs, a subdirectory parmonc_data is created
// in the working directory; results live in parmonc_data/results:
//
//	func.dat     — the matrix of sample means,
//	func_ci.dat  — means together with absolute errors, relative errors
//	               and variances,
//	func_log.dat — simulation log: total sample volume, mean computer
//	               time per realization, upper error bounds, etc.,
//
// and parmonc_data/parmonc_exp.dat records every stochastic experiment
// started in this directory.
//
// Additionally the package stores the state the text files cannot
// carry, and the run's audit trail:
//
//	parmonc_data/checkpoint.dat       — the run image: base, per-worker
//	                                    shards and their fold, rewritten
//	                                    at run start and every save,
//	parmonc_data/workers/worker-*.dat — per-worker subtotal snapshots
//	                                    (merged by manaver),
//	parmonc_data/events.jsonl         — the run-event journal.
//
// A run service adds each run's manifest.json and its own service.wal.
//
// All writes are atomic (write to a temp file, then rename), so a job
// killed mid-save never leaves a truncated results file — the property
// that makes the paper's "resume after termination" workflow safe.
package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parmonc/internal/rng"
	"parmonc/internal/stat"
)

// Directory and file names fixed by the paper.
const (
	DataDir        = "parmonc_data"
	ResultsDir     = "results"
	WorkersDir     = "workers"
	FuncFile       = "func.dat"
	FuncCIFile     = "func_ci.dat"
	FuncLogFile    = "func_log.dat"
	ExpFile        = "parmonc_exp.dat"
	CheckpointFile = "checkpoint.dat"
	JournalFile    = "events.jsonl"
)

// RunMeta describes one simulation run; it is stamped into checkpoints
// and the experiment log.
type RunMeta struct {
	SeqNum    uint64 // "experiments" subsequence number (the seqnum argument)
	Nrow      int
	Ncol      int
	MaxSV     int64 // maximal sample volume requested
	Workers   int   // number of parallel workers (processors)
	Params    rng.Params
	Gamma     float64 // confidence coefficient
	StartedAt time.Time

	// Workload names the realization routine the run averages, and
	// Fingerprint its full parameter-resolved identity (the short
	// "name@v1/0123456789ab" form). Scenario, when present, is the
	// canonical compact-JSON scenario spec that reproduces the run's
	// parameterization verbatim via `parmonc run -scenario`. All three
	// are optional (runs driven by an unregistered user factory leave
	// them empty) and are recorded in the experiment log.
	Workload    string
	Fingerprint string
	Scenario    string
}

// Validate checks the metadata invariants.
func (m RunMeta) Validate() error {
	if m.Nrow <= 0 || m.Ncol <= 0 {
		return fmt.Errorf("store: invalid dimensions %d×%d", m.Nrow, m.Ncol)
	}
	if m.MaxSV < 0 {
		return fmt.Errorf("store: negative maximal sample volume %d", m.MaxSV)
	}
	if m.Workers < 0 {
		return fmt.Errorf("store: negative worker count %d", m.Workers)
	}
	if m.Gamma <= 0 {
		return fmt.Errorf("store: confidence coefficient %g must be positive", m.Gamma)
	}
	return m.Params.Validate()
}

// Dir is an open PARMONC data directory rooted at a working directory.
type Dir struct {
	work string // the user's working directory
}

// Open ensures the parmonc_data tree exists under workdir and returns a
// handle to it.
func Open(workdir string) (*Dir, error) {
	d := &Dir{work: workdir}
	for _, p := range []string{d.dataPath(), d.resultsPath(), d.workersPath()} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", p, err)
		}
	}
	return d, nil
}

// Root returns the working directory the store was opened in.
func (d *Dir) Root() string { return d.work }

func (d *Dir) dataPath() string    { return filepath.Join(d.work, DataDir) }
func (d *Dir) resultsPath() string { return filepath.Join(d.dataPath(), ResultsDir) }
func (d *Dir) workersPath() string { return filepath.Join(d.dataPath(), WorkersDir) }

// CheckpointPath returns the path of the collector checkpoint file.
func (d *Dir) CheckpointPath() string { return filepath.Join(d.dataPath(), CheckpointFile) }

// JournalPath returns the path of the run-event journal (a JSONL file
// the obs subsystem appends to). It lives inside parmonc_data so the
// audit trail travels with the results it explains; unlike the other
// files here it is append-only rather than atomically replaced.
func (d *Dir) JournalPath() string { return filepath.Join(d.dataPath(), JournalFile) }

// atomicWrite writes content produced by fill to path via a temp file,
// fsync and rename. Every failure path removes the temp file, so a
// crashed or failed save never leaves an orphan .tmp beside the data;
// the fsync before the rename guarantees the renamed file's contents
// are durable — without it a power loss shortly after the rename can
// leave a correctly-named but empty results file, breaking the resume
// workflow the atomic rename exists to protect.
func atomicWrite(path string, fill func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SaveResults writes func.dat, func_ci.dat and func_log.dat from the
// given report. This is what the collector does every peraver interval
// and at the end of the run.
func (d *Dir) SaveResults(rep stat.Report, meta RunMeta) error {
	if err := meta.Validate(); err != nil {
		return err
	}
	if rep.Nrow != meta.Nrow || rep.Ncol != meta.Ncol {
		return fmt.Errorf("store: report is %d×%d but run is %d×%d", rep.Nrow, rep.Ncol, meta.Nrow, meta.Ncol)
	}
	if err := atomicWrite(filepath.Join(d.resultsPath(), FuncFile), func(w *bufio.Writer) error {
		return writeMatrix(w, rep.Nrow, rep.Ncol, rep.Mean)
	}); err != nil {
		return fmt.Errorf("store: writing %s: %w", FuncFile, err)
	}
	if err := atomicWrite(filepath.Join(d.resultsPath(), FuncCIFile), func(w *bufio.Writer) error {
		fmt.Fprintf(w, "# columns: i j mean abs_err rel_err_pct variance\n")
		for i := 0; i < rep.Nrow; i++ {
			for j := 0; j < rep.Ncol; j++ {
				k := i*rep.Ncol + j
				fmt.Fprintf(w, "%d %d %.17g %.17g %.17g %.17g\n",
					i+1, j+1, rep.Mean[k], rep.AbsErr[k], rep.RelErr[k], rep.Var[k])
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("store: writing %s: %w", FuncCIFile, err)
	}
	if err := atomicWrite(filepath.Join(d.resultsPath(), FuncLogFile), func(w *bufio.Writer) error {
		fmt.Fprintf(w, "experiment_seqnum          %d\n", meta.SeqNum)
		fmt.Fprintf(w, "matrix_rows                %d\n", rep.Nrow)
		fmt.Fprintf(w, "matrix_cols                %d\n", rep.Ncol)
		fmt.Fprintf(w, "total_sample_volume        %d\n", rep.N)
		fmt.Fprintf(w, "max_sample_volume          %d\n", meta.MaxSV)
		fmt.Fprintf(w, "workers                    %d\n", meta.Workers)
		fmt.Fprintf(w, "confidence_coefficient     %g\n", rep.Gamma)
		fmt.Fprintf(w, "mean_time_per_realization  %s\n", rep.MeanSimTime)
		fmt.Fprintf(w, "max_absolute_error         %.17g\n", rep.MaxAbsErr)
		fmt.Fprintf(w, "max_relative_error_pct     %.17g\n", rep.MaxRelErr)
		fmt.Fprintf(w, "max_variance               %.17g\n", rep.MaxVar)
		fmt.Fprintf(w, "leap_exponents             ne=%d np=%d nr=%d\n",
			meta.Params.ExperimentLeapLog2, meta.Params.ProcessorLeapLog2, meta.Params.RealizationLeapLog2)
		return nil
	}); err != nil {
		return fmt.Errorf("store: writing %s: %w", FuncLogFile, err)
	}
	return nil
}

func writeMatrix(w *bufio.Writer, nrow, ncol int, vals []float64) error {
	for i := 0; i < nrow; i++ {
		for j := 0; j < ncol; j++ {
			if j > 0 {
				if _, err := w.WriteString(" "); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%.17g", vals[i*ncol+j]); err != nil {
				return err
			}
		}
		if _, err := w.WriteString("\n"); err != nil {
			return err
		}
	}
	return nil
}

// LoadMeans reads back the matrix of sample means from func.dat.
func (d *Dir) LoadMeans() (nrow, ncol int, vals []float64, err error) {
	f, err := os.Open(filepath.Join(d.resultsPath(), FuncFile))
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if ncol == 0 {
			ncol = len(fields)
		} else if len(fields) != ncol {
			return 0, 0, nil, fmt.Errorf("store: ragged row in %s: %d fields, want %d", FuncFile, len(fields), ncol)
		}
		for _, fd := range fields {
			var v float64
			if _, err := fmt.Sscanf(fd, "%g", &v); err != nil {
				return 0, 0, nil, fmt.Errorf("store: bad value %q in %s: %w", fd, FuncFile, err)
			}
			vals = append(vals, v)
		}
		nrow++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, err
	}
	return nrow, ncol, vals, nil
}

// workerFile is the gob payload of a worker snapshot file.
type workerFile struct {
	Meta RunMeta
	Snap stat.Snapshot
}

// SaveWorkerSnapshot writes worker w's subtotal moments. The file is the
// input of the manaver command: when a cluster job is killed, the last
// worker snapshots typically hold a larger sample volume than the last
// collector save.
//
// snap is borrowed, see stat.Snapshot.
func (d *Dir) SaveWorkerSnapshot(worker int, snap stat.Snapshot, meta RunMeta) error {
	if worker < 0 {
		return fmt.Errorf("store: negative worker id %d", worker)
	}
	if err := snap.Validate(); err != nil {
		return err
	}
	path := filepath.Join(d.workersPath(), fmt.Sprintf("worker-%06d.dat", worker))
	return saveFramed(path, frameMagic, workerFile{Meta: meta, Snap: snap})
}

// LoadWorkerSnapshots reads every worker snapshot in the directory, as
// shard records (worker id and moments) sorted by worker id, with the
// run metadata each file was stamped with. A torn or garbage file is
// quarantined and reported as a *CorruptError.
func (d *Dir) LoadWorkerSnapshots() ([]ShardRecord, []RunMeta, error) {
	entries, err := os.ReadDir(d.workersPath()) // sorted by name, so by zero-padded id
	if err != nil {
		return nil, nil, err
	}
	var recs []ShardRecord
	var metas []RunMeta
	for _, e := range entries {
		var w int
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".dat") {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "worker-%d.dat", &w); err != nil {
			continue
		}
		var wf workerFile
		if err := loadFramed(filepath.Join(d.workersPath(), e.Name()), frameMagic, &wf); err != nil {
			return nil, nil, err
		}
		if err := wf.Snap.Validate(); err != nil {
			return nil, nil, fmt.Errorf("store: invalid worker snapshot %s: %w", e.Name(), err)
		}
		recs = append(recs, ShardRecord{Worker: w, Snap: wf.Snap})
		metas = append(metas, wf.Meta)
	}
	return recs, metas, nil
}

// RemoveWorkerSnapshots deletes all worker snapshot files (done when a
// fresh or resumed run starts).
func (d *Dir) RemoveWorkerSnapshots() error {
	entries, err := os.ReadDir(d.workersPath())
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "worker-") {
			if err := os.Remove(filepath.Join(d.workersPath(), e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendExperiment appends one line describing a started experiment to
// parmonc_exp.dat, the per-directory history the paper keeps.
func (d *Dir) AppendExperiment(meta RunMeta, resumed bool) error {
	if err := meta.Validate(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(d.dataPath(), ExpFile),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	mode := "new"
	if resumed {
		mode = "resumed"
	}
	line := fmt.Sprintf("%s seqnum=%d rows=%d cols=%d maxsv=%d workers=%d mode=%s",
		meta.StartedAt.UTC().Format(time.RFC3339), meta.SeqNum, meta.Nrow, meta.Ncol,
		meta.MaxSV, meta.Workers, mode)
	// Workload identity rides on the same space-separated line; the
	// scenario spec is canonical compact JSON (no spaces), so the line
	// stays splittable on blanks.
	if meta.Fingerprint != "" {
		line += " workload=" + meta.Fingerprint
	} else if meta.Workload != "" {
		line += " workload=" + meta.Workload
	}
	if meta.Scenario != "" {
		line += " scenario=" + meta.Scenario
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// Experiments returns the recorded experiment-log lines.
func (d *Dir) Experiments() ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(d.dataPath(), ExpFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil, nil
	}
	return lines, nil
}
