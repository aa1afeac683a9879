package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// harness around its own calls into the layer. Parent is the index of
// the span that caused it (noParent for a root); spans of one workload
// share its name as their identifier.
//
// A block span stands for Calls back-to-back calls made inside the
// parent's interval: BusyNS is the summed duration of those calls and
// is what the span weighs, while Start/End bracket the first and last
// of them. An ordinary span weighs End−Start.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	BusyNS   int64  `json:"busy_ns,omitempty"`
	Calls    int64  `json:"calls,omitempty"`
}

const noParent = -1

func (s span) weight() int64 {
	if s.Calls > 0 {
		return s.BusyNS
	}
	return s.EndNS - s.StartNS
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer records nothing, so untraced runs share the traced code
// path at the cost of one pointer check per boundary. It is used from
// one goroutine at a time.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(time.Since(t.origin)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.origin))
}

// block records a block span: calls calls that together took busy,
// the first starting at start and the last ending at end.
func (t *tracer) block(name string, parent int, start, end time.Time, busy time.Duration, calls int64) {
	if calls == 0 {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin)),
		BusyNS: int64(busy), Calls: calls,
	})
}

// selfTimes sums, per span name, each span's weight minus the weight
// of its direct children: the time spent in the layer itself.
func selfTimes(spans []span) map[string]int64 {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] += s.weight()
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += s.weight() - children[i]
	}
	return self
}

// sortedNames returns m's keys in descending order of value.
func sortedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string           `json:"workload"`
	Machine  machine          `json:"machine"`
	SelfNS   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

func (t *tracer) write(dir string, m machine) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	b, err := json.Marshal(traceFile{Workload: t.workload, Machine: m, SelfNS: selfTimes(t.spans), Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
