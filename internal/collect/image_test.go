package collect_test

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"parmonc/internal/collect"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// savedVolume reads total_sample_volume from func_log.dat.
func savedVolume(t *testing.T, dir *store.Dir) int64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir.Root(), store.DataDir, store.ResultsDir, store.FuncLogFile))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^total_sample_volume\s+(\d+)$`).FindSubmatch(raw)
	if m == nil {
		t.Fatalf("no total_sample_volume in %s:\n%s", store.FuncLogFile, raw)
	}
	n, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSaveDescribesOneInstant: every save writes one image, and the
// results files are derived from it — while pushes keep landing on
// every shard, the image's fold holds exactly its base and shards,
// func_log.dat reports the fold's volume, and func.dat holds the fold's
// means bit for bit.
func TestSaveDescribesOneInstant(t *testing.T) {
	dir := openDir(t)
	c, err := collect.New(dir, testMeta(), collect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c.Register(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := stat.New(1, 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a.Reset()
				if err := a.Add([]float64{float64(i%7) / 3, float64(w) + 0.1}); err != nil {
					t.Error(err)
					return
				}
				if err := c.Push(w, a.View()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	volumes := map[int64]bool{}
	for i := 0; i < 200; i++ {
		if err := c.Save(); err != nil {
			t.Fatal(err)
		}
		img, err := dir.LoadImage()
		if err != nil {
			t.Fatal(err)
		}
		n := img.Base.N
		for _, sh := range img.Shards {
			n += sh.Snap.N
		}
		if img.Fold.N != n {
			t.Fatalf("save %d: fold N = %d, base + shards N = %d", i, img.Fold.N, n)
		}
		if got := savedVolume(t, dir); got != img.Fold.N {
			t.Fatalf("save %d: %s total_sample_volume = %d, image fold N = %d", i, store.FuncLogFile, got, img.Fold.N)
		}
		rep, err := img.Report()
		if err != nil {
			t.Fatal(err)
		}
		_, _, means, err := dir.LoadMeans()
		if err != nil {
			t.Fatal(err)
		}
		for k := range rep.Mean {
			if math.Float64bits(means[k]) != math.Float64bits(rep.Mean[k]) {
				t.Fatalf("save %d: %s[%d] = %v, image fold mean %v", i, store.FuncFile, k, means[k], rep.Mean[k])
			}
		}
		volumes[img.Fold.N] = true
	}
	if len(volumes) < 2 {
		t.Fatalf("all 200 saves saw the same volume: the pushers never ran between saves")
	}
}

// TestStableImageReportBitIdentical: a StableMoments run's image
// carries its fold's exact Welford/Chan state, so the report derived
// from the saved image is bit-identical to the one the run returned —
// the raw-sum Fold alone would not reproduce it.
func TestStableImageReportBitIdentical(t *testing.T) {
	dir := openDir(t)
	c, err := collect.New(dir, testMeta(), collect.Config{StableMoments: true})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		c.Register(w)
		for i := 0; i < 40; i++ {
			v := 1e6 + float64(i*(w+1))*1e-3 // offset data: raw sums lose precision here
			if err := c.Push(w, snapOf(t, 1, 2, []float64{v, math.Sqrt(v)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := c.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	img, err := dir.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	got, err := img.Report()
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, got, want)
}
