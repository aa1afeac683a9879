package collect

import (
	"fmt"
	"os"
	"path/filepath"

	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Manaver recomputes the averaged results from the run image's base
// plus the per-worker snapshot files — the paper's manaver command
// (Sec. 3.4). It is used after a job was killed, when the worker files
// hold a larger sample volume than the last collector save. It rewrites
// the results files and the image — Base unchanged, the worker files as
// its Shards, the recovered total as its Fold — and returns the merged
// report, so a second Manaver rewrites every file byte for byte and a
// resumed run starts from the recovered volume.
//
// Manaver writes nothing and returns an error when there is nothing to
// average (no worker files: the run did not save them), when a worker
// file belongs to another run than the image, or when the recovered
// sample volume is below the image's: results never move backwards.
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
	// The image is written when a run starts, so a missing one means no
	// simulation ran here (or it was deleted, taking the base with it).
	saved, err := dir.LoadImage()
	if os.IsNotExist(err) {
		return stat.Report{}, fmt.Errorf("collect: manaver: no simulation has run in %s (no %s)", workdir, store.CheckpointFile)
	}
	if err != nil {
		return stat.Report{}, err
	}
	shards, metas, err := dir.LoadWorkerSnapshots()
	if err != nil {
		return stat.Report{}, err
	}
	if len(shards) == 0 {
		return stat.Report{}, fmt.Errorf("collect: manaver: no worker snapshot files in %s (the run did not save them)", workdir)
	}
	img := store.Image{Meta: saved.Meta, Base: saved.Base, Shards: shards}
	total, err := stat.FromSnapshot(img.Base)
	if err != nil {
		return stat.Report{}, err
	}
	for i, sh := range shards {
		if metas[i].SeqNum != img.Meta.SeqNum {
			return stat.Report{}, fmt.Errorf("collect: manaver: worker snapshot %d is from experiments subsequence %d, the run from %d",
				sh.Worker, metas[i].SeqNum, img.Meta.SeqNum)
		}
		if err := total.Merge(sh.Snap); err != nil {
			return stat.Report{}, fmt.Errorf("collect: manaver: worker snapshot %d: %w", sh.Worker, err)
		}
	}
	if total.N() < saved.Fold.N {
		return stat.Report{}, fmt.Errorf("collect: manaver: worker snapshots hold %d realizations, fewer than the %d already saved", total.N(), saved.Fold.N)
	}
	img.Fold = total.Snapshot()
	rep := total.Report(img.Meta.Gamma)
	if err := dir.SaveResults(rep, img.Meta); err != nil {
		return stat.Report{}, err
	}
	if err := dir.SaveImage(img); err != nil {
		return stat.Report{}, err
	}
	return rep, nil
}
