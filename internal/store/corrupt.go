package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
)

// ErrCorrupt is the sentinel every corruption failure in this package
// wraps: test with errors.Is(err, ErrCorrupt). A corrupt file is never
// a transient condition — the bytes on disk cannot be parsed — so the
// loaders quarantine it (rename to <name>.corrupt) before returning,
// which makes the error path idempotent: the next load sees a missing
// file, not the same garbage again.
var ErrCorrupt = errors.New("store: corrupt file")

// CorruptError describes one detected corruption: which file, what was
// wrong with it, and where the quarantined copy went (empty if the
// rename itself failed). It matches ErrCorrupt under errors.Is.
type CorruptError struct {
	Path        string // the file that failed to load
	Reason      string // what the detector saw (truncation, checksum, ...)
	Quarantined string // post-quarantine path, "" if quarantine failed
}

func (e *CorruptError) Error() string {
	if e.Quarantined != "" {
		return fmt.Sprintf("store: corrupt file %s (%s; quarantined as %s)", e.Path, e.Reason, e.Quarantined)
	}
	return fmt.Sprintf("store: corrupt file %s (%s)", e.Path, e.Reason)
}

func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// QuarantineSuffix is appended to a corrupt file's name when the loader
// moves it aside.
const QuarantineSuffix = ".corrupt"

// quarantine moves path aside and builds the typed error. An existing
// quarantine file from an earlier incident is overwritten — the newest
// corpse is the one worth examining.
func quarantine(path, reason string) *CorruptError {
	e := &CorruptError{Path: path, Reason: reason}
	q := path + QuarantineSuffix
	if err := os.Rename(path, q); err == nil {
		e.Quarantined = q
	}
	return e
}

// Binary frame wrapped around every gob payload this package persists:
// a magic string naming the payload's format, the payload length, and a
// CRC-32 (IEEE) of the payload. Gob alone detects most garbage but
// happily decodes a truncated stream that happens to end on a value
// boundary; the explicit length + checksum turns every torn or
// bit-flipped file into a detected corruption instead of a silently
// short checkpoint.
const (
	frameMagic = "parmonc-frame v1\n" // worker snapshot files (and checkpoint.dat before the image)
	imageMagic = "parmonc-image v1\n" // the run image, checkpoint.dat
)

// writeFramed emits the frame around payload.
func writeFramed(w *bufio.Writer, magic string, payload []byte) error {
	if _, err := w.WriteString(magic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// saveFramed gob-encodes v and atomically writes it to path, framed.
func saveFramed(path, magic string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	return atomicWrite(path, func(w *bufio.Writer) error {
		return writeFramed(w, magic, buf.Bytes())
	})
}

// loadFramed reads path, verifies its frame and gob-decodes the payload
// into v. A missing file surfaces as the original os error (os.IsNotExist
// works); any framing violation or undecodable payload quarantines the
// file and returns a *CorruptError. A run image found in the older
// frame format is intact, only older: it is refused with
// ErrOldCheckpoint and left in place.
func loadFramed(path, magic string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if magic == imageMagic && bytes.HasPrefix(raw, []byte(frameMagic)) {
		return fmt.Errorf("%w %q at %s (written by an older parmonc; this version reads %q run images)",
			ErrOldCheckpoint, strings.TrimSpace(frameMagic), path, strings.TrimSpace(imageMagic))
	}
	if !bytes.HasPrefix(raw, []byte(magic)) {
		return quarantine(path, "bad magic")
	}
	rest := raw[len(magic):]
	if len(rest) < 12 {
		return quarantine(path, "truncated header")
	}
	n := binary.BigEndian.Uint64(rest[:8])
	sum := binary.BigEndian.Uint32(rest[8:12])
	payload := rest[12:]
	if uint64(len(payload)) < n {
		return quarantine(path, fmt.Sprintf("truncated payload: %d of %d bytes", len(payload), n))
	}
	if uint64(len(payload)) > n {
		return quarantine(path, fmt.Sprintf("trailing bytes: %d past the declared %d", uint64(len(payload))-n, n))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return quarantine(path, "checksum mismatch")
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return quarantine(path, fmt.Sprintf("undecodable payload: %v", err))
	}
	return nil
}
