package store

import (
	"errors"
	"fmt"

	"parmonc/internal/stat"
)

// Image is a run's durable state, captured once per collector save and
// written as checkpoint.dat. Every reader derives what it needs from
// it: resumption (res = 1) reads Fold, a restarted coordinator restores
// Base and Shards to reproduce the exact reduction tree (float addition
// is not associative, so restarting from the folded total would change
// the report bits), and manaver takes its base from Base.
//
// The fold is stored, not recomputed on load: a StableMoments shard
// serializes as raw sums, so refolding the shards would not reproduce
// the Welford/Chan bits the results files were written from.
type Image struct {
	Meta   RunMeta
	Base   stat.Snapshot // the moments the run started from (resume base, or empty)
	Shards []ShardRecord // per-worker staging moments, dedup cursors, lease ledgers
	Fold   stat.Snapshot // Base, then Shards in worker order: what the results report

	// Centered holds a StableMoments fold's exact state, which Fold's
	// raw sums only approximate; nil for raw-sum runs.
	Centered *stat.Centered
}

// LeaseLedgerEntry is one lease's record: the window, how far its
// merged prefix extends, and whether it finished or was revoked. Fields
// mirror collect's internal ledger without importing it (store sits
// below collect in the layering).
type LeaseLedgerEntry struct {
	ID        uint64
	Proc      uint64
	Start     uint64
	Count     int64
	Done      int64
	Completed bool
	Revoked   bool
}

// ShardRecord is one worker shard in an image.
type ShardRecord struct {
	Worker  int
	Epoch   uint64
	LastSeq uint64
	Snap    stat.Snapshot
	Leases  []LeaseLedgerEntry
}

// ErrOldCheckpoint marks a checkpoint.dat written before the image
// format: a bare folded total. It is refused, not quarantined — the
// file is intact, only older.
var ErrOldCheckpoint = errors.New("store: checkpoint in the pre-image format")

// validate checks the image invariants: valid metadata, every snapshot
// valid and of the run's dimensions, and a fold that holds exactly the
// base plus the shards.
func (img Image) validate() error {
	if err := img.Meta.Validate(); err != nil {
		return err
	}
	check := func(what string, s stat.Snapshot) error {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if s.Nrow != img.Meta.Nrow || s.Ncol != img.Meta.Ncol {
			return fmt.Errorf("%s is %d×%d, the run %d×%d", what, s.Nrow, s.Ncol, img.Meta.Nrow, img.Meta.Ncol)
		}
		return nil
	}
	if err := check("base", img.Base); err != nil {
		return err
	}
	n := img.Base.N
	for _, sh := range img.Shards {
		if err := check(fmt.Sprintf("shard %d", sh.Worker), sh.Snap); err != nil {
			return err
		}
		n += sh.Snap.N
	}
	if err := check("fold", img.Fold); err != nil {
		return err
	}
	if img.Fold.N != n {
		return fmt.Errorf("fold holds %d realizations, base and shards %d", img.Fold.N, n)
	}
	if c := img.Centered; c != nil && (len(c.Mean) != len(img.Fold.Sum) || len(c.M2) != len(img.Fold.Sum)) {
		return fmt.Errorf("centered fold has %d/%d entries, want %d", len(c.Mean), len(c.M2), len(img.Fold.Sum))
	}
	return nil
}

// Report derives the statistics of the stored fold: the bits the save
// that wrote the image put into the results files.
func (img Image) Report() (stat.Report, error) {
	if img.Centered != nil {
		a, err := stat.FromCentered(img.Fold, *img.Centered)
		if err != nil {
			return stat.Report{}, err
		}
		return a.Report(img.Meta.Gamma), nil
	}
	a, err := stat.FromSnapshot(img.Fold)
	if err != nil {
		return stat.Report{}, err
	}
	return a.Report(img.Meta.Gamma), nil
}

// SaveImage validates img and atomically writes it as checkpoint.dat.
func (d *Dir) SaveImage(img Image) error {
	if err := img.validate(); err != nil {
		return fmt.Errorf("store: invalid image: %w", err)
	}
	return saveFramed(d.CheckpointPath(), imageMagic, img)
}

// LoadImage reads and verifies checkpoint.dat. A missing file surfaces
// as the original os error (os.IsNotExist works). A torn, garbage or
// inconsistent image is quarantined as checkpoint.dat.corrupt and
// reported as a *CorruptError (errors.Is(err, ErrCorrupt)); a
// checkpoint in the pre-image format is left in place and reported as
// ErrOldCheckpoint.
func (d *Dir) LoadImage() (Image, error) {
	var img Image
	if err := loadFramed(d.CheckpointPath(), imageMagic, &img); err != nil {
		return Image{}, err
	}
	if err := img.validate(); err != nil {
		return Image{}, quarantine(d.CheckpointPath(), err.Error())
	}
	return img, nil
}

// SaveCheckpoint writes an image holding only a folded total (Base =
// Fold = snap, no shards): a run that later resumes from it (formulas
// (5)) sees exactly snap.
func (d *Dir) SaveCheckpoint(snap stat.Snapshot, meta RunMeta) error {
	return d.SaveImage(Image{Meta: meta, Base: snap, Fold: snap})
}

// LoadCheckpoint returns the image's fold and metadata: the state a
// resumed run starts from. Errors are LoadImage's.
func (d *Dir) LoadCheckpoint() (stat.Snapshot, RunMeta, error) {
	img, err := d.LoadImage()
	if err != nil {
		return stat.Snapshot{}, RunMeta{}, err
	}
	return img.Fold, img.Meta, nil
}
