package runmgr

// The PushBatch wire frame: bit-exact round trips (including payloads
// the collector must reject), the decoder's behaviour on hostile bytes,
// and the end-to-end check that an invalid snapshot crosses TCP intact
// and gets its own per-entry verdict.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/stat"
)

// sameFloatBits reports whether two slices hold the same float64 bit
// patterns (NaN payloads and the sign of zero included). Empty and nil
// are the same, as they are on gob's wire.
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBatch compares two batches field by field and bit by bit.
func sameBatch(t *testing.T, got, want PushBatchArgs) {
	t.Helper()
	if got.Worker != want.Worker || got.Epoch != want.Epoch || len(got.Entries) != len(want.Entries) {
		t.Fatalf("batch header: got worker %d epoch %d %d entries, want %d %d %d",
			got.Worker, got.Epoch, len(got.Entries), want.Worker, want.Epoch, len(want.Entries))
	}
	for i, g := range got.Entries {
		w := want.Entries[i]
		gs, ws := g.Snap, w.Snap
		if g.RunID != w.RunID || g.LeaseID != w.LeaseID || g.Done != w.Done ||
			gs.Nrow != ws.Nrow || gs.Ncol != ws.Ncol || gs.N != ws.N || gs.SimTimeNS != ws.SimTimeNS ||
			!sameFloatBits(gs.Sum, ws.Sum) || !sameFloatBits(gs.Sum2, ws.Sum2) {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, w)
		}
	}
}

// frameCases are batches the frame must carry bit for bit, valid or not:
// the collector, not the codec, decides what is acceptable.
func frameCases() map[string]PushBatchArgs {
	negNaN := math.Float64frombits(0xfff8_0000_0000_0bad) // NaN with a payload and the sign bit
	return map[string]PushBatchArgs{
		"empty":      {Worker: 3, Epoch: 9},
		"one-window": {Worker: 1, Epoch: 1, Entries: []PushEntry{{RunID: "r0001", LeaseID: 7, Done: 1, Snap: stat.Snapshot{Nrow: 1, Ncol: 1, Sum: []float64{1}, Sum2: []float64{1}, N: 1, SimTimeNS: 33}}}},
		"specials": {Worker: 2, Epoch: math.MaxUint64, Entries: []PushEntry{{RunID: "r0002", LeaseID: math.MaxUint64, Done: 5, Snap: stat.Snapshot{
			Nrow: 2, Ncol: 2,
			Sum:  []float64{math.NaN(), negNaN, math.Copysign(0, -1), math.Inf(1)},
			Sum2: []float64{math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, 0},
			N:    5, SimTimeNS: math.MaxInt64,
		}}}},
		"malformed": {Worker: -4, Epoch: 2, Entries: []PushEntry{
			{RunID: "r0003", LeaseID: 1, Done: -10, Snap: stat.Snapshot{Nrow: 1, Ncol: 3, Sum: []float64{1, 2, 3}, Sum2: []float64{4}, N: -1, SimTimeNS: -7}},
			{RunID: "r0003", LeaseID: 1, Done: 0, Snap: stat.Snapshot{Nrow: -2, Ncol: 0, Sum2: []float64{1, 2}, N: math.MinInt64}},
			{RunID: "", LeaseID: 0, Snap: stat.Snapshot{}},
		}},
		"multi-run": {Worker: 7, Epoch: 3, Entries: []PushEntry{
			{RunID: "r0001", LeaseID: 1, Done: 10, Snap: stat.Snapshot{Nrow: 1, Ncol: 2, Sum: []float64{1, 2}, Sum2: []float64{1, 4}, N: 10}},
			{RunID: "r0002", LeaseID: 1, Done: 10, Snap: stat.Snapshot{Nrow: 1, Ncol: 2, Sum: []float64{3, 4}, Sum2: []float64{9, 16}, N: 10}},
			{RunID: "r0001", LeaseID: 2, Done: 20, Snap: stat.Snapshot{Nrow: 1, Ncol: 2, Sum: []float64{5, 6}, Sum2: []float64{25, 36}, N: 10}},
			{RunID: strings.Repeat("x", 300), LeaseID: 1 << 40, Done: 1 << 50, Snap: stat.Snapshot{Nrow: 1, Ncol: 1, Sum: []float64{-1}, Sum2: []float64{1}, N: 1 << 50}},
		}},
	}
}

// TestPushBatchFrameRoundTrip: every case survives the frame bit for
// bit, directly and through gob, which net/rpc uses and which must
// delegate to the frame.
func TestPushBatchFrameRoundTrip(t *testing.T) {
	for name, want := range frameCases() {
		t.Run(name, func(t *testing.T) {
			b, err := want.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got PushBatchArgs
			if err := got.UnmarshalBinary(b); err != nil {
				t.Fatal(err)
			}
			sameBatch(t, got, want)

			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(buf.Bytes(), b) {
				t.Fatal("gob did not carry the batch as its binary frame")
			}
			var viaGob PushBatchArgs
			if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
				t.Fatal(err)
			}
			sameBatch(t, viaGob, want)
		})
	}
}

// TestPushBatchFrameSharesOneArray: a decoded batch backs its eight
// moment slices with one array — the allocation count leaves room for
// no second — and no slice can grow into its neighbour.
func TestPushBatchFrameSharesOneArray(t *testing.T) {
	b, err := frameCases()["multi-run"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got PushBatchArgs
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = got.UnmarshalBinary(b) }); allocs > 6 {
		t.Errorf("decoding a 4-entry, 3-run batch took %.0f allocations, want at most 6 (run table, 3 IDs, entries, moments)", allocs)
	}
	for i, e := range got.Entries {
		if cap(e.Snap.Sum) != len(e.Snap.Sum) || cap(e.Snap.Sum2) != len(e.Snap.Sum2) {
			t.Errorf("entry %d: moment slices have spare capacity", i)
		}
	}
}

// TestPushBatchFrameHostile: bytes that are not a frame fail with an
// error — never a panic — and cost allocation bounded by their length.
func TestPushBatchFrameHostile(t *testing.T) {
	good, err := frameCases()["multi-run"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) error {
		var a PushBatchArgs
		return a.UnmarshalBinary(b)
	}
	for n := 0; n < len(good); n++ {
		if err := decode(good[:n]); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes decoded without error", n, len(good))
		}
	}
	if err := decode(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("frame with a trailing byte decoded without error")
	}
	bad := append([]byte(nil), good...)
	bad[0] = pushFrameVersion + 1
	if err := decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: err = %v", err)
	}

	// Counts far beyond the bytes that follow them, at every level.
	huge := func(prefix []byte, counts ...uint64) []byte {
		b := append([]byte{pushFrameVersion}, prefix...)
		for _, c := range counts {
			b = binary.AppendUvarint(b, c)
		}
		return append(b, make([]byte, 16)...)
	}
	hdr := []byte{0x02, 0x01} // worker 1, epoch 1
	oneRun := []byte{0x02, 0x01, 0x01, 0x01, 'r'}
	entry := func(run uint64, ls, ls2 int64) []byte {
		b := append([]byte{pushFrameVersion}, oneRun...)
		b = binary.AppendUvarint(b, 1) // one entry
		b = binary.AppendUvarint(b, run)
		b = binary.AppendUvarint(b, 1) // lease
		for _, v := range []int64{1, 1, 1, 1, 0, ls, ls2} {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	hostile := map[string][]byte{
		"run-count":      huge(hdr, math.MaxUint64),
		"run-id-length":  huge(hdr, 1, 1<<40),
		"entry-count":    huge(oneRun, 1<<40),
		"entry-count-9x": huge(oneRun, 3), // 3 entries need ≥ 27 header bytes; 16 follow
		"run-index":      append(entry(5, 1, 1), make([]byte, 16)...),
		"sum-length":     append(entry(0, 1<<40, 0), make([]byte, 16)...),
		"sum2-length":    append(entry(0, 1, 1<<62), make([]byte, 16)...),
		"negative-len":   append(entry(0, -1, 1), make([]byte, 16)...),
		"moments-short":  append(entry(0, 2, 2), make([]byte, 31)...),
		"moments-long":   append(entry(0, 2, 2), make([]byte, 33)...),
		"varint-overlong": append([]byte{pushFrameVersion},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	for name, b := range hostile {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := decode(b)
		runtime.ReadMemStats(&ms1)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		t.Logf("%s: %v", name, err)
		if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > uint64(64*len(b)+4096) {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(b), alloc)
		}
	}
}

// FuzzPushBatchFrame: no input panics the decoder, and whatever it
// accepts re-encodes to a frame that decodes to the same batch.
func FuzzPushBatchFrame(f *testing.F) {
	for _, a := range frameCases() {
		b, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{pushFrameVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		var a PushBatchArgs
		if err := a.UnmarshalBinary(b); err != nil {
			return
		}
		again, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back PushBatchArgs
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		sameBatch(t, back, a)
	})
}

// TestPushBatchFrameInvalidOverTCP: snapshots the collector must
// reject cross the real wire unchanged, each gets its own Err verdict
// and a push_invalid count, and the valid entries of the same batch
// still land.
func TestPushBatchFrameInvalidOverTCP(t *testing.T) {
	m := newManager(t, testConfig(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ServeFleet(ln); err != nil {
		t.Fatal(err)
	}
	rc := cluster.NewResilientClient(ln.Addr().String(), cluster.RetryPolicy{})
	defer rc.Close()
	api := rpcFleet{rc}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := m.Submit(piSubmission(100_000, 1)); err != nil {
		t.Fatal(err)
	}
	at, err := api.Attach(ctx, AttachArgs{ClientID: "frame-tcp"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := api.Pull(ctx, PullArgs{Worker: at.Worker, Epoch: at.Epoch})
	if err != nil || !pr.Granted {
		t.Fatalf("pull: %+v, %v", pr, err)
	}
	task := pr.Task
	p := task.PassEvery
	good := windowSnap(t, task.Nrow, task.Ncol, p)
	nan := windowSnap(t, task.Nrow, task.Ncol, p)
	nan.Sum[0] = math.NaN()
	short := windowSnap(t, task.Nrow, task.Ncol, p)
	short.Sum2 = nil
	entry := func(done int64, s stat.Snapshot) PushEntry {
		return PushEntry{RunID: task.RunID, LeaseID: task.Lease.ID, Done: done, Snap: s}
	}
	rep, err := api.PushBatch(ctx, PushBatchArgs{Worker: at.Worker, Epoch: at.Epoch, Entries: []PushEntry{
		entry(p, good), entry(2*p, nan), entry(2*p, short), entry(2*p, good),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 4 {
		t.Fatalf("%d verdicts for 4 entries", len(rep.Entries))
	}
	for i, wantErr := range []bool{false, true, true, false} {
		e := rep.Entries[i]
		if e.Fenced || e.Final || (e.Err != "") != wantErr {
			t.Errorf("entry %d: verdict %+v, want error %v", i, e, wantErr)
		}
	}
	st, err := m.Run(task.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 2*p {
		t.Errorf("merged N = %d, want %d (the two valid windows)", st.N, 2*p)
	}
	m.mu.Lock()
	ms := m.runs[task.RunID].eng.Metrics()
	m.mu.Unlock()
	if ms.PushesInvalid != 2 || ms.Merges != 2 {
		t.Errorf("collector counted %d push_invalid and %d merges, want 2 and 2", ms.PushesInvalid, ms.Merges)
	}
}

// TestPushBatchFrameWireSize pins the EXPERIMENTS.md message-size
// figure: the paper's 1000×2 window is its raw moments, 2 × 2000
// float64s, plus a few bytes of framing.
func TestPushBatchFrameWireSize(t *testing.T) {
	snap := windowSnap(t, 1000, 2, 1)
	b, err := PushBatchArgs{Worker: 1, Epoch: 1, Entries: []PushEntry{
		{RunID: "r0001", LeaseID: 7, Done: 1, Snap: snap},
	}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1000×2 window: %d bytes", len(b))
	if moments := 8 * 2 * 2000; len(b) < moments || len(b) > moments+64 {
		t.Fatalf("1000×2 window frames to %d bytes, want %d of moments plus at most 64", len(b), moments)
	}
}
