package core

import (
	"bytes"
	"context"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parmonc/internal/store"
)

// dataFiles reads every file under dir's parmonc_data.
func dataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(filepath.Join(dir, store.DataDir), func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		files[p] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestManaverWritesTheImage: manaver's image keeps the run's base, holds
// the worker files as its shards and the recovered total as its fold;
// a second manaver rewrites every file byte for byte, and a resumed run
// starts from the recovered volume.
func TestManaverWritesTheImage(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir)
	cfg.MaxSamples = 300
	if _, err := Run(context.Background(), cfg, uniformMean); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	cfg.SeqNum = 1
	cfg.MaxSamples = 400
	cfg.SaveWorkerSnapshots = true
	cfg.StrictExchange = true // every realization lands in a worker file
	if _, err := Run(context.Background(), cfg, uniformMean); err != nil {
		t.Fatal(err)
	}

	// The job dies before its first save: the image is still the one
	// the resumed run started with — the previous run's fold as base.
	d, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	start, err := d.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveCheckpoint(start.Base, start.Meta); err != nil {
		t.Fatal(err)
	}

	rep, err := Manaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 700 {
		t.Fatalf("manaver N = %d, want 700", rep.N)
	}
	img, err := d.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	shards, _, err := d.LoadWorkerSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img.Base, start.Base) {
		t.Error("manaver changed the image's base")
	}
	if !reflect.DeepEqual(img.Shards, shards) {
		t.Error("the image's shards are not the worker files")
	}
	if img.Fold.N != rep.N {
		t.Errorf("image fold N = %d, manaver N = %d", img.Fold.N, rep.N)
	}
	folded, err := img.Report()
	if err != nil {
		t.Fatal(err)
	}
	for k := range rep.Mean {
		if math.Float64bits(folded.Mean[k]) != math.Float64bits(rep.Mean[k]) ||
			math.Float64bits(folded.Var[k]) != math.Float64bits(rep.Var[k]) {
			t.Errorf("image fold report differs from manaver's at %d", k)
		}
	}

	before := dataFiles(t, dir)
	if _, err := Manaver(dir); err != nil {
		t.Fatal(err)
	}
	after := dataFiles(t, dir)
	if len(after) != len(before) {
		t.Errorf("second manaver changed the file set: %d files, was %d", len(after), len(before))
	}
	for p, b := range before {
		if !bytes.Equal(after[p], b) {
			t.Errorf("second manaver rewrote %s differently", p)
		}
	}

	cfg.SeqNum = 2
	cfg.MaxSamples = 100
	cfg.SaveWorkerSnapshots = false
	cfg.StrictExchange = false
	res, err := Run(context.Background(), cfg, uniformMean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ResumedSamples != 700 || res.Report.N != 800 {
		t.Fatalf("resume after manaver: resumed %d, N = %d; want 700 and 800", res.Metrics.ResumedSamples, res.Report.N)
	}
}
