package collect

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Manaver recomputes the averaged results from the run-base checkpoint
// plus the per-worker snapshot files — the paper's manaver command
// (Sec. 3.4). It is used after a job was killed, when the worker files
// hold a larger sample volume than the last collector save. It rewrites
// the results files and the collector checkpoint and returns the merged
// report.
//
// Manaver writes nothing and returns an error when there is nothing to
// average (no worker files: the run did not save them), when a worker
// file belongs to another run than the base, or when the recovered
// sample volume is below that of the checkpoint already on disk:
// results never move backwards.
//
// It lives in the collector engine because it is the same merge — the
// 0-th processor's formula (5) — replayed from disk instead of from a
// transport.
func Manaver(workdir string) (stat.Report, error) {
	// Refuse before store.Open scaffolds an empty parmonc_data tree in
	// a directory that plainly holds no simulation to average.
	if _, err := os.Stat(filepath.Join(workdir, store.DataDir)); os.IsNotExist(err) {
		return stat.Report{}, fmt.Errorf("collect: manaver: no simulation has run in %s", workdir)
	}
	dir, err := store.Open(workdir)
	if err != nil {
		return stat.Report{}, err
	}
	baseSnap, meta, err := dir.LoadBaseCheckpoint()
	if err != nil {
		if os.IsNotExist(err) {
			return stat.Report{}, fmt.Errorf("collect: manaver: no simulation has run in %s", workdir)
		}
		return stat.Report{}, err
	}
	total, err := stat.FromSnapshot(baseSnap)
	if err != nil {
		return stat.Report{}, err
	}
	snaps, metas, err := dir.LoadWorkerSnapshots()
	if err != nil {
		return stat.Report{}, err
	}
	if len(snaps) == 0 {
		return stat.Report{}, fmt.Errorf("collect: manaver: no worker snapshot files in %s (the run did not save them)", workdir)
	}
	for i, s := range snaps {
		if metas[i].SeqNum != meta.SeqNum {
			return stat.Report{}, fmt.Errorf("collect: manaver: worker snapshot %d is from experiments subsequence %d, the run base from %d",
				i, metas[i].SeqNum, meta.SeqNum)
		}
		if err := total.Merge(s); err != nil {
			return stat.Report{}, fmt.Errorf("collect: manaver: worker snapshot %d: %w", i, err)
		}
	}
	// A torn checkpoint is quarantined by the load and rebuilt below;
	// only a readable one bounds the recovered volume from below.
	if saved, _, err := dir.LoadCheckpoint(); err == nil {
		if total.N() < saved.N {
			return stat.Report{}, fmt.Errorf("collect: manaver: worker snapshots hold %d realizations, fewer than the %d already saved", total.N(), saved.N)
		}
	} else if !os.IsNotExist(err) && !errors.Is(err, store.ErrCorrupt) {
		return stat.Report{}, err
	}
	rep := total.Report(meta.Gamma)
	if err := dir.SaveResults(rep, meta); err != nil {
		return stat.Report{}, err
	}
	if err := dir.SaveCheckpoint(total.Snapshot(), meta); err != nil {
		return stat.Report{}, err
	}
	return rep, nil
}
