package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one record of the run-event journal. Timestamps pair a wall
// clock anchor with a monotonic offset: Mono is nanoseconds since the
// journal was opened, measured on Go's monotonic clock, so event
// ordering and spacing survive wall-clock adjustments; Time is the
// derived wall time for human consumption.
//
// The journal records a run's story, not its data traffic: lifecycle
// (run_start, run_stop, run_admit, ...), membership (register,
// deregister, worker_attach, worker_detach, prune, heartbeat_miss),
// leases (lease_grant, lease_reissue, lease_complete), saves (save,
// carrying the running N) and every rejection (reject, push_invalid,
// duplicate, stale_epoch). Per-window push and merge are counters, not
// lines. The set of kinds is open-ended — consumers must ignore kinds
// they do not know.
type Event struct {
	Time    time.Time      `json:"ts"`
	Mono    int64          `json:"mono_ns"`
	Kind    string         `json:"event"`
	Worker  int            `json:"worker,omitempty"`
	Samples int64          `json:"samples,omitempty"`
	Seq     uint64         `json:"seq,omitempty"`
	Elapsed time.Duration  `json:"elapsed_ns,omitempty"`
	Err     string         `json:"err,omitempty"`
	Fields  map[string]any `json:"fields,omitempty"`
}

// Journal is an append-only JSONL event log. Record is non-blocking:
// events go into a bounded channel and a background goroutine encodes
// and writes them through a bufio.Writer, flushed periodically and on
// Close — buffered appends off the push hot path. When the channel is
// full the event is dropped and counted (a slow disk must degrade the
// audit trail, never the simulation).
//
// A journal opened with OpenJournalRotating additionally rotates by
// size: once the current file reaches the byte cap it is renamed
// events.<n>.jsonl (n increasing across rotations and reopens) and a
// fresh events.jsonl is started, so a long-lived serve process never
// grows one file unboundedly.
type Journal struct {
	f     *os.File
	path  string
	start time.Time

	maxBytes int64 // rotation threshold; 0 disables rotation
	size     int64 // bytes in the current file; writer goroutine only
	nextRot  int   // index the next rotated file gets; writer goroutine only

	ch        chan Event
	done      chan struct{}
	dropped   atomic.Int64
	written   atomic.Int64
	rotations atomic.Int64

	closeMu   sync.RWMutex // guards closed vs in-flight Record sends
	closed    bool
	closeOnce sync.Once
	closeErr  error
}

// journalDepth bounds the in-flight event queue. At the chaos suite's
// push rates a queue this deep absorbs multi-millisecond write stalls
// without drops.
const journalDepth = 4096

// journalFlushPeriod is how often the background writer flushes even
// when events keep arriving.
const journalFlushPeriod = 250 * time.Millisecond

// OpenJournal opens (appending) or creates the JSONL journal at path
// and starts its background writer. The file grows without bound; use
// OpenJournalRotating for long-lived processes.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalRotating(path, 0)
}

// OpenJournalRotating is OpenJournal with a size cap: once the current
// file reaches maxBytes it is renamed to the next free events.<n>.jsonl
// sibling and a fresh file is started at path. Rotation indices pick up
// where previous sessions left off (existing events.<n>.jsonl files are
// scanned at open), so reopening never clobbers rotated history.
// maxBytes <= 0 disables rotation.
func OpenJournalRotating(path string, maxBytes int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	j := &Journal{
		f:        f,
		path:     path,
		start:    time.Now(),
		maxBytes: maxBytes,
		ch:       make(chan Event, journalDepth),
		done:     make(chan struct{}),
	}
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	if maxBytes > 0 {
		j.nextRot = nextRotationIndex(path)
	}
	go j.writeLoop()
	return j, nil
}

// rotatedName returns the name rotation n of path gets: the numbered
// sibling with the index spliced in before the extension
// (events.jsonl → events.3.jsonl).
func rotatedName(path string, n int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%d%s", strings.TrimSuffix(path, ext), n, ext)
}

// nextRotationIndex scans path's directory for previously rotated
// siblings and returns one past the highest index found (1 for none).
func nextRotationIndex(path string) int {
	ext := filepath.Ext(path)
	stem := strings.TrimSuffix(path, ext)
	matches, err := filepath.Glob(stem + ".*" + ext)
	if err != nil {
		return 1
	}
	next := 1
	for _, m := range matches {
		mid := strings.TrimSuffix(strings.TrimPrefix(m, stem+"."), ext)
		if n, err := strconv.Atoi(mid); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

// Record enqueues one event, stamping its timestamps. It never blocks:
// if the writer has fallen behind the event is dropped and counted.
func (j *Journal) Record(e Event) {
	mono := time.Since(j.start)
	e.Mono = mono.Nanoseconds()
	e.Time = j.start.Add(mono)
	j.closeMu.RLock()
	defer j.closeMu.RUnlock()
	if j.closed {
		j.dropped.Add(1)
		return
	}
	select {
	case j.ch <- e:
	default:
		j.dropped.Add(1)
	}
}

// Emit is Record for the common case: a kind, a worker, and optional
// extra fields.
func (j *Journal) Emit(kind string, worker int, fields map[string]any) {
	j.Record(Event{Kind: kind, Worker: worker, Fields: fields})
}

// Dropped reports how many events were discarded because the writer
// could not keep up.
func (j *Journal) Dropped() int64 { return j.dropped.Load() }

// Written reports how many events reached the file buffer.
func (j *Journal) Written() int64 { return j.written.Load() }

// Rotations reports how many size rotations have happened this session.
func (j *Journal) Rotations() int64 { return j.rotations.Load() }

func (j *Journal) writeLoop() {
	w := bufio.NewWriterSize(j.f, 64<<10)
	tick := time.NewTicker(journalFlushPeriod)
	defer tick.Stop()
	for {
		select {
		case e, ok := <-j.ch:
			if !ok {
				if w != nil {
					w.Flush()
				}
				close(j.done)
				return
			}
			if w == nil {
				// A rotation failed to open a fresh file; the journal
				// degrades to counting drops, never blocks the run.
				j.dropped.Add(1)
				continue
			}
			b, err := json.Marshal(e)
			if err != nil {
				continue
			}
			b = append(b, '\n')
			if _, err := w.Write(b); err == nil {
				j.written.Add(1)
				j.size += int64(len(b))
			}
			if j.maxBytes > 0 && j.size >= j.maxBytes {
				w = j.rotate(w)
			}
		case <-tick.C:
			if w != nil {
				w.Flush()
			}
		}
	}
}

// rotate renames the full current file to its numbered sibling and
// starts a fresh one. Runs on the writer goroutine. If the rename
// fails the current file keeps growing (rotation retries on the next
// write); if reopening fails the journal degrades to dropping events.
func (j *Journal) rotate(w *bufio.Writer) *bufio.Writer {
	w.Flush()
	j.f.Close()
	if err := os.Rename(j.path, rotatedName(j.path, j.nextRot)); err == nil {
		j.nextRot++
		j.rotations.Add(1)
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return nil
	}
	j.f = f
	j.size = 0
	if st, err := f.Stat(); err == nil {
		j.size = st.Size() // nonzero when the rename failed: retry soon
	}
	return bufio.NewWriterSize(f, 64<<10)
}

// Close drains pending events, flushes, and closes the file. Safe to
// call more than once; Record after Close is a silent drop.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() {
		j.closeMu.Lock()
		j.closed = true
		close(j.ch)
		j.closeMu.Unlock()
		<-j.done
		if j.f != nil {
			j.closeErr = j.f.Close()
		}
	})
	return j.closeErr
}

// ReadJournal decodes every event in the JSONL file at path — the
// replay half of the audit story. Unknown fields are ignored; a
// trailing partial line (a crash mid-append) terminates the read
// without error.
func ReadJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Event
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			// io.EOF is a clean end; anything else is a torn final
			// record (a crash mid-append) — stop without error either
			// way, keeping what decoded.
			return out, nil
		}
		out = append(out, e)
	}
}
