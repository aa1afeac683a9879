package runmgr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The PushBatch wire frame. PushBatchArgs implements
// encoding.BinaryMarshaler and BinaryUnmarshaler, so gob (and net/rpc
// through it) carries a batch as one opaque byte string instead of
// reflecting over every entry and snapshot field. Layout:
//
//	version                        byte (pushFrameVersion)
//	Worker                         zigzag varint
//	Epoch                          uvarint
//	run-ID table: count            uvarint
//	  per run: len, bytes          uvarint, raw
//	entry count                    uvarint
//	per entry:
//	  run index, LeaseID           uvarint, uvarint
//	  Done, Nrow, Ncol, N,
//	  SimTimeNS, len(Sum),
//	  len(Sum2)                    zigzag varints
//	moments                        every entry's Sum then Sum2, as
//	                               little-endian float64 bits
//
// Signed fields travel zigzag-encoded and the two moment lengths
// separately, so a malformed snapshot (negative N, mismatched lengths,
// NaN bits) reaches the collector exactly as sent and Validate rejects
// it there. A frame that cannot be decoded at all — truncated, trailing
// bytes, a count the remaining bytes cannot hold, an unknown version —
// fails the whole call.
//
// Ownership: the decoder backs every entry's Sum and Sum2 with one
// float64 array per batch. The coordinator borrows the snapshots (see
// stat.Snapshot) and retains nothing, so the array dies with the call.
const pushFrameVersion = 1

// entryVarints is the number of varints in an entry header; each takes
// at least one byte and at most binary.MaxVarintLen64.
const entryVarints = 9

var errFrameShort = errors.New("runmgr: push frame truncated or holds an overlong varint")

// MarshalBinary encodes the batch as a push frame.
func (a PushBatchArgs) MarshalBinary() ([]byte, error) {
	var runs []string
	size := 1 + 4*binary.MaxVarintLen64 // version, worker, epoch, two counts
	for _, e := range a.Entries {
		if runIndex(runs, e.RunID) < 0 {
			runs = append(runs, e.RunID)
			size += binary.MaxVarintLen64 + len(e.RunID)
		}
		size += entryVarints*binary.MaxVarintLen64 + 8*(len(e.Snap.Sum)+len(e.Snap.Sum2))
	}
	b := make([]byte, 0, size)
	b = append(b, pushFrameVersion)
	b = binary.AppendVarint(b, int64(a.Worker))
	b = binary.AppendUvarint(b, a.Epoch)
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for _, id := range runs {
		b = binary.AppendUvarint(b, uint64(len(id)))
		b = append(b, id...)
	}
	b = binary.AppendUvarint(b, uint64(len(a.Entries)))
	for _, e := range a.Entries {
		s := e.Snap
		b = binary.AppendUvarint(b, uint64(runIndex(runs, e.RunID)))
		b = binary.AppendUvarint(b, e.LeaseID)
		for _, v := range [...]int64{e.Done, int64(s.Nrow), int64(s.Ncol), s.N, s.SimTimeNS, int64(len(s.Sum)), int64(len(s.Sum2))} {
			b = binary.AppendVarint(b, v)
		}
	}
	for _, e := range a.Entries {
		for _, x := range e.Snap.Sum {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		for _, x := range e.Snap.Sum2 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b, nil
}

// runIndex returns id's position in runs, or -1. A batch spans a
// handful of runs at most, so a scan beats a map.
func runIndex(runs []string, id string) int {
	for i, r := range runs {
		if r == id {
			return i
		}
	}
	return -1
}

// frameReader decodes a push frame front to back. The first error
// sticks; every later read returns zero.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errFrameShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errFrameShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a uvarint count of items that each need at least per
// bytes of what remains, and rejects one the frame cannot hold — the
// check that keeps a hostile count from sizing an allocation.
func (r *frameReader) count(what string, per int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.b)/per) {
		r.fail(fmt.Errorf("runmgr: push frame claims %d %s in %d bytes", v, what, len(r.b)))
		return 0
	}
	return int(v)
}

// UnmarshalBinary decodes a push frame. It never panics and allocates
// in proportion to len(data): every count is checked against the bytes
// that remain before anything is sized by it.
func (a *PushBatchArgs) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return errFrameShort
	}
	if data[0] != pushFrameVersion {
		return fmt.Errorf("runmgr: unknown push frame version %d", data[0])
	}
	r := frameReader{b: data[1:]}
	worker := r.varint()
	epoch := r.uvarint()
	runs := make([]string, r.count("run IDs", 1))
	for i := range runs {
		n := r.count("run ID bytes", 1)
		if r.err != nil {
			return r.err
		}
		runs[i] = string(r.b[:n])
		r.b = r.b[n:]
	}
	entries := make([]PushEntry, r.count("entries", entryVarints))
	// The moments follow the entry headers, so they fit in what remains
	// now: size the one backing array by that bound, carve each entry's
	// Sum and Sum2 out of it while reading the headers, and fill it once
	// the headers have fixed how many values there are.
	block := make([]float64, len(r.b)/8)
	off := 0
	for i := range entries {
		e := &entries[i]
		run := r.uvarint()
		e.LeaseID = r.uvarint()
		e.Done = r.varint()
		e.Snap.Nrow = int(r.varint())
		e.Snap.Ncol = int(r.varint())
		e.Snap.N = r.varint()
		e.Snap.SimTimeNS = r.varint()
		ls, ls2 := r.varint(), r.varint()
		if r.err != nil {
			return r.err
		}
		if run >= uint64(len(runs)) {
			return fmt.Errorf("runmgr: push frame entry %d names run %d of %d", i, run, len(runs))
		}
		e.RunID = runs[run]
		room := int64((len(r.b) - 8*off) / 8) // moments the rest can still hold
		if ls < 0 || ls2 < 0 || ls > room || ls2 > room-ls {
			return fmt.Errorf("runmgr: push frame entry %d claims %d+%d moments with %d bytes left", i, ls, ls2, len(r.b)-8*off)
		}
		e.Snap.Sum, off = carve(block, off, int(ls))
		e.Snap.Sum2, off = carve(block, off, int(ls2))
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 8*off {
		return fmt.Errorf("runmgr: push frame has %d moment bytes, want %d", len(r.b), 8*off)
	}
	for i := range block[:off] {
		block[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	*a = PushBatchArgs{Worker: int(worker), Epoch: epoch, Entries: entries}
	return nil
}

// carve returns block[off:off+n] with its capacity clipped (nil for
// n = 0, as gob decodes an empty slice) and the next offset.
func carve(block []float64, off, n int) ([]float64, int) {
	if n == 0 {
		return nil, off
	}
	return block[off : off+n : off+n], off + n
}
