package store

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"parmonc/internal/stat"
)

// --- run image hardening ---------------------------------------------------

// testImage builds a valid two-shard image: Fold is Base then the
// shards, merged in order.
func testImage(t *testing.T) Image {
	t.Helper()
	meta := testMeta()
	shard := func(vals ...float64) stat.Snapshot {
		a := stat.New(meta.Nrow, meta.Ncol)
		row := make([]float64, meta.Nrow*meta.Ncol)
		for _, v := range vals {
			for j := range row {
				row[j] = v + float64(j)
			}
			if err := a.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		return a.Snapshot()
	}
	img := Image{Meta: meta, Base: shard(1), Shards: []ShardRecord{
		{Worker: 0, Epoch: 1, LastSeq: 2, Snap: shard(2, 3),
			Leases: []LeaseLedgerEntry{{ID: 1, Proc: 1, Count: 4, Done: 2}}},
		{Worker: 3, Epoch: 1, LastSeq: 1, Snap: shard(4)},
	}}
	fold, err := stat.Fold(meta.Nrow, meta.Ncol, img.Base, []stat.Snapshot{img.Shards[0].Snap, img.Shards[1].Snap})
	if err != nil {
		t.Fatal(err)
	}
	img.Fold = fold.Snapshot()
	return img
}

// goodCheckpointBytes builds one valid image file and returns its raw
// bytes.
func goodCheckpointBytes(t *testing.T) []byte {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveImage(testImage(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(d.CheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// framedImage frames img as SaveImage would, skipping its validation,
// so a test can build an image that lies about its invariants.
func framedImage(t *testing.T, img Image) []byte {
	t.Helper()
	var payload, out bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(img); err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(&out)
	if err := writeFramed(w, imageMagic, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// expectQuarantined asserts err is a *CorruptError matching ErrCorrupt
// and that path was moved aside as path+".corrupt".
func expectQuarantined(t *testing.T, err error, path string) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a corruption error, got nil")
	}
	if os.IsNotExist(err) {
		t.Fatalf("corruption misreported as missing file: %v", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error does not match ErrCorrupt: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CorruptError: %v", err)
	}
	if _, serr := os.Stat(path + QuarantineSuffix); serr != nil {
		t.Fatalf("bad file was not quarantined at %s: %v", path+QuarantineSuffix, serr)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("bad file still present at %s (stat err %v)", path, serr)
	}
}

// TestLoadCheckpointCorruptionTable: every damaged image — torn at any
// byte, bit-flipped, padded, garbage, or framed correctly but breaking
// the image invariants — is reported as corrupt and quarantined, by
// LoadImage and by LoadCheckpoint alike.
func TestLoadCheckpointCorruptionTable(t *testing.T) {
	good := goodCheckpointBytes(t)
	flip := func(raw []byte, i int) []byte {
		out := append([]byte(nil), raw...)
		out[i] ^= 0x40
		return out
	}
	lying := func(mutate func(*Image)) []byte {
		img := testImage(t)
		mutate(&img)
		return framedImage(t, img)
	}
	headerLen := len(imageMagic) + 8 + 4
	cases := []struct {
		name   string
		damage []byte
	}{
		{"empty file", nil},
		{"truncated mid-magic", good[:5]},
		{"magic only", good[:len(imageMagic)]},
		{"truncated mid-header", good[:len(imageMagic)+6]},
		{"header only", good[:headerLen]},
		{"truncated mid-payload", good[:len(good)-3]},
		{"single torn byte of payload", good[:headerLen+1]},
		{"bit flip in payload", flip(good, headerLen+2)},
		{"bit flip in stored checksum", flip(good, len(imageMagic)+8)},
		{"bit flip in length", flip(good, len(imageMagic)+7)},
		{"trailing garbage", append(append([]byte(nil), good...), "junk"...)},
		{"not a frame at all", []byte("definitely not a checkpoint")},
		{"torn", []byte("torn")},
		{"fold disagrees with base and shards", lying(func(img *Image) { img.Shards = img.Shards[:1] })},
		{"shard of other dimensions", lying(func(img *Image) { img.Shards[1].Snap = stat.New(1, 1).Snapshot() })},
		{"invalid metadata", lying(func(img *Image) { img.Meta.Gamma = 0 })},
	}
	// Both loaders see the damage as corruption and quarantine the file.
	expectCorrupt := func(t *testing.T, damage []byte) {
		t.Helper()
		for _, load := range []func(d *Dir) error{
			func(d *Dir) error { _, err := d.LoadImage(); return err },
			func(d *Dir) error { _, _, err := d.LoadCheckpoint(); return err },
		} {
			d, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(d.CheckpointPath(), damage, 0o644); err != nil {
				t.Fatal(err)
			}
			expectQuarantined(t, load(d), d.CheckpointPath())
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { expectCorrupt(t, tc.damage) })
	}
	t.Run("truncated at every byte offset", func(t *testing.T) {
		for off := 0; off < len(good); off++ {
			expectCorrupt(t, good[:off])
		}
	})
}

// TestLoadCheckpointOldFormatRefused: a checkpoint.dat written before
// the image format (a framed bare total, testdata/checkpoint-frame-v1.dat)
// is refused with an error naming that format, and left where it is — a
// user's old results are not corrupt.
func TestLoadCheckpointOldFormatRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "checkpoint-frame-v1.dat"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.CheckpointPath(), old, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // refusing twice: nothing moved in between
		_, _, lerr := d.LoadCheckpoint()
		if !errors.Is(lerr, ErrOldCheckpoint) || errors.Is(lerr, ErrCorrupt) {
			t.Fatalf("old-format checkpoint: got %v, want ErrOldCheckpoint and not ErrCorrupt", lerr)
		}
		if !strings.Contains(lerr.Error(), "parmonc-frame v1") {
			t.Errorf("error does not name the old format: %v", lerr)
		}
	}
	if got, err := os.ReadFile(d.CheckpointPath()); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old checkpoint was moved or changed (err %v)", err)
	}
	if _, err := os.Stat(d.CheckpointPath() + QuarantineSuffix); !os.IsNotExist(err) {
		t.Fatalf("old checkpoint was quarantined (stat err %v)", err)
	}
}

// TestImageRoundTrip: every field of an image survives save and load,
// and the image's report is the report of its fold.
func TestImageRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(t)
	if err := d.SaveImage(img); err != nil {
		t.Fatal(err)
	}
	got, err := d.LoadImage()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shards, img.Shards) || !reflect.DeepEqual(got.Base, img.Base) ||
		!reflect.DeepEqual(got.Fold, img.Fold) || got.Meta.SeqNum != img.Meta.SeqNum || got.Centered != nil {
		t.Fatalf("image round trip lost data:\n got %+v\nwant %+v", got, img)
	}
	// A save that breaks the invariants is refused before it writes.
	bad := img
	bad.Fold.N++
	if err := d.SaveImage(bad); err == nil {
		t.Fatal("SaveImage accepted a fold that disagrees with base and shards")
	}
	if again, err := d.LoadImage(); err != nil || again.Fold.N != img.Fold.N {
		t.Fatalf("refused save changed the file: N = %d, err %v", again.Fold.N, err)
	}
}

// --- manifest hardening ---------------------------------------------------

type testManifestBody struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	N     int64   `json:"n"`
	X     float64 `json:"x"`
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), ManifestFile)
	in := testManifestBody{ID: "r0001", State: "running", N: 12345, X: 0.1 + 0.2}
	if err := SaveManifest(path, in); err != nil {
		t.Fatal(err)
	}
	var out testManifestBody
	if err := LoadManifest(path, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("manifest round trip changed the body: %+v != %+v", out, in)
	}
}

func TestLoadManifestMissing(t *testing.T) {
	var out testManifestBody
	err := LoadManifest(filepath.Join(t.TempDir(), ManifestFile), &out)
	if !os.IsNotExist(err) {
		t.Fatalf("missing manifest should surface as not-exist, got %v", err)
	}
}

func TestLoadManifestCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.json")
	if err := SaveManifest(goodPath, testManifestBody{ID: "r0001", State: "done", N: 7}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	bodyAt := strings.Index(string(good), `"body"`)
	if bodyAt < 0 {
		t.Fatalf("envelope has no body field: %s", good)
	}
	flip := func(raw []byte, i int) []byte {
		out := append([]byte(nil), raw...)
		out[i] ^= 0x01
		return out
	}
	cases := []struct {
		name   string
		damage []byte
	}{
		{"empty file", nil},
		{"truncated mid-envelope", good[:len(good)/2]},
		{"truncated inside body", good[:bodyAt+10]},
		{"tampered body byte", flip(good, bodyAt+12)},
		{"tampered checksum", flip(good, strings.Index(string(good), `"crc32"`)+10)},
		{"not JSON", []byte("<html>not a manifest</html>")},
		{"wrong version", []byte(`{"v":99,"crc32":"00000000","body":{}}`)},
		{"missing body", []byte(`{"v":1,"crc32":"00000000"}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), ManifestFile)
			if err := os.WriteFile(path, tc.damage, 0o644); err != nil {
				t.Fatal(err)
			}
			var out testManifestBody
			expectQuarantined(t, LoadManifest(path, &out), path)
		})
	}
}

// --- service WAL ----------------------------------------------------------

func walNow() time.Time { return time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC) }

// makeWAL creates a WAL with an epoch record and the given lifecycle
// kinds, then closes it.
func makeWAL(t *testing.T, path string, kinds ...string) {
	t.Helper()
	w, _, err := OpenWAL(path, 0, walNow())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		if err := w.Append(k, fmt.Sprintf("r%04d", i+1), walNow(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTripAndEpochs(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	makeWAL(t, path, "submit", "admit", "start")

	rep, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 4 { // epoch + 3 lifecycle
		t.Fatalf("got %d records, want 4", len(rep.Records))
	}
	if rep.Records[0].Kind != WALKindEpoch || rep.Records[0].Epoch != 1 {
		t.Fatalf("first record should be the epoch-1 record, got %+v", rep.Records[0])
	}
	if rep.Torn {
		t.Fatal("clean WAL reported a torn tail")
	}
	if rep.LastSeq != 4 || rep.LastEpoch != 1 {
		t.Fatalf("high-water marks: seq %d epoch %d, want 4 and 1", rep.LastSeq, rep.LastEpoch)
	}

	// A second incarnation starts epoch 2; a caller recovering a higher
	// epoch from manifests pushes it further still.
	w2, rep2, err := OpenWAL(path, 0, walNow())
	if err != nil {
		t.Fatal(err)
	}
	if w2.Epoch() != 2 {
		t.Fatalf("second incarnation epoch %d, want 2", w2.Epoch())
	}
	if len(rep2.Records) != 4 {
		t.Fatalf("replay saw %d records, want 4", len(rep2.Records))
	}
	w2.Close()

	w3, _, err := OpenWAL(path, 7, walNow())
	if err != nil {
		t.Fatal(err)
	}
	if w3.Epoch() != 8 {
		t.Fatalf("epoch with prevEpoch=7 is %d, want 8", w3.Epoch())
	}
	w3.Close()
}

func TestWALCleanShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	makeWAL(t, path, "submit", WALKindShutdown)
	rep, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CleanShutdown() {
		t.Fatal("WAL ending in a shutdown record should report a clean shutdown")
	}
	// The next incarnation's epoch record ends the clean-shutdown state.
	w, _, err := OpenWAL(path, 0, walNow())
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err = ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CleanShutdown() {
		t.Fatal("an epoch record after shutdown must clear CleanShutdown")
	}
}

func TestWALTornTailDroppedAndRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	makeWAL(t, path, "submit", "admit", "start")
	// Crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":99,"kind":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := ReadWAL(path)
	if err != nil {
		t.Fatalf("a torn tail is not corruption: %v", err)
	}
	if !rep.Torn {
		t.Fatal("torn tail not flagged")
	}
	if len(rep.Records) != 4 {
		t.Fatalf("torn record not dropped: %d records, want 4", len(rep.Records))
	}

	// Re-opening repairs the tail; the next read must be clean and the
	// appended epoch record intact (the regression: appending after a
	// torn fragment used to glue the records together).
	w, _, err := OpenWAL(path, 0, walNow())
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err = ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("tail still torn after repair")
	}
	if len(rep.Records) != 5 || rep.Records[4].Kind != WALKindEpoch || rep.Records[4].Epoch != 2 {
		t.Fatalf("expected the 4 committed records plus the epoch-2 record, got %d: %+v", len(rep.Records), rep.Records)
	}
}

func TestWALUnterminatedValidRecordCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	makeWAL(t, path, "submit", "admit")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Crash between write and newline flush is impossible (one write),
	// but a checksum-valid unterminated record can appear when the final
	// newline is lost by the filesystem: the checksum proves it whole.
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("a checksum-valid unterminated record must count as committed, not torn")
	}
	if len(rep.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(rep.Records))
	}
}

func TestWALMidFileCorruptionQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	makeWAL(t, path, "submit", "admit", "start")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Damage the second record (a mid-file line), leaving valid records
	// after it — in-place damage, not a crash artifact.
	lines[2] = "00000000" + lines[2][8:]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := ReadWAL(path)
	expectQuarantined(t, rerr, path)
}

func TestWALNonIncreasingSeqQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	makeWAL(t, path, "submit")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	last := lines[len(lines)-2] // duplicate the final record verbatim
	if err := os.WriteFile(path, []byte(string(raw)+last), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := ReadWAL(path)
	expectQuarantined(t, rerr, path)
}

func TestWALBadMagicQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	if err := os.WriteFile(path, []byte("not a wal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := ReadWAL(path)
	expectQuarantined(t, rerr, path)
}

func TestWALMissingFile(t *testing.T) {
	_, err := ReadWAL(filepath.Join(t.TempDir(), WALFile))
	if !os.IsNotExist(err) {
		t.Fatalf("missing WAL should surface as not-exist, got %v", err)
	}
}

// FuzzReadWAL feeds arbitrary bytes through the WAL reader: whatever
// the damage, it must return (possibly with a quarantine error), never
// panic or hang.
func FuzzReadWAL(f *testing.F) {
	f.Add([]byte(walMagic + "\n"))
	f.Add([]byte(walMagic))
	f.Add([]byte(""))
	f.Add([]byte(walMagic + "\n\n\n"))
	f.Add([]byte(walMagic + "\n00000000 {}\n"))
	body := `{"seq":1,"epoch":1,"kind":"epoch","ts":"2026-08-08T09:00:00Z"}`
	f.Add([]byte(fmt.Sprintf("%s\n%08x %s\n", walMagic, crc32.ChecksumIEEE([]byte(body)), body)))
	f.Add([]byte(fmt.Sprintf("%s\n%08x %s", walMagic, crc32.ChecksumIEEE([]byte(body)), body)))
	f.Add([]byte("garbage that is not a wal at all"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), WALFile)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Skip()
		}
		rep, err := ReadWAL(path)
		if err != nil {
			if os.IsNotExist(err) || errors.Is(err, ErrCorrupt) {
				return
			}
			t.Fatalf("unexpected error class: %v", err)
		}
		// Committed records must have strictly increasing sequences.
		var last uint64
		for _, rec := range rep.Records {
			if rec.Seq <= last {
				t.Fatalf("non-increasing seq %d after %d survived the read", rec.Seq, last)
			}
			last = rec.Seq
		}
	})
}
