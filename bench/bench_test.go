package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parmonc/internal/stat"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}, {0.1, 1.4},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one value = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints; the acceptance procedure computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSpeedFactor(t *testing.T) {
	for _, c := range []struct {
		name           string
		cal, cpu, want float64
	}{
		{"quiet machine", refCalSeconds, 1, 1},
		{"1.5× slower, all CPU-bound", 1.5 * refCalSeconds, 1, 1 / 1.5},
		{"1.5× slower, all waiting", 1.5 * refCalSeconds, 0, 1},
		{"2× slower, half and half", 2 * refCalSeconds, 0.5, 0.75},
		{"share above 1 is clipped", 2 * refCalSeconds, 1.7, 0.5},
		{"share below 0 is clipped", 2 * refCalSeconds, -1, 1},
	} {
		if got := speedFactor(c.cal, c.cpu); !near(got, c.want) {
			t.Errorf("%s: factor %g, want %g", c.name, got, c.want)
		}
	}
	if got := cpuShare(1.9, []float64{0.5, 0.5}); !near(got, 0.95) {
		t.Errorf("cpuShare = %g, want 0.95 (1.9 CPU-s over 2 workers × 1 s)", got)
	}
	if got := cpuShare(5, []float64{1}); got != 1 {
		t.Errorf("cpuShare = %g, want it clipped to 1", got)
	}

	// A window measured on a machine running 1.25× slower converts to
	// the times of a quiet one; raw values stay as measured.
	s := sample{setupS: []float64{2}, repS: []float64{1.25}, runS: []float64{1.25},
		calS: []float64{1.25 * refCalSeconds}, repCPU: 2.5, setupCPU: 4}
	converted, raw, speed := s.endToEnd(workloadDef{l: 1000})
	if !near(converted["run_s_p50"].Value, 1) || !near(converted["realizations_per_s"].Value, 1000) || !near(converted["setup_s"].Value, 1.6) {
		t.Errorf("converted = %v (speed %+v)", converted, speed)
	}
	if raw["run_s_p50"].Value != 1.25 || raw["setup_s"].Value != 2 {
		t.Errorf("raw = %v", raw)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// run [0,1000] ⊃ block [100,900] ⊃ two block spans whose calls took
	// 300 and 200 ns in total, whatever interval they bracket; and a
	// plain child [900,950] directly under run.
	spans := []span{
		{ID: 0, Parent: noParent, Name: "run", StartNS: 0, EndNS: 1000},
		{ID: 1, Parent: 0, Name: "block", StartNS: 100, EndNS: 900},
		{ID: 2, Parent: 1, Name: "kernel", StartNS: 100, EndNS: 890, BusyNS: 300, Calls: 1024},
		{ID: 3, Parent: 1, Name: "add", StartNS: 110, EndNS: 900, BusyNS: 200, Calls: 1024},
		{ID: 4, Parent: 0, Name: "finalize", StartNS: 900, EndNS: 950},
		{ID: 5, Parent: noParent, Name: "run", StartNS: 2000, EndNS: 2100},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"run":      (1000 - 800 - 50) + 100, // parent minus children, summed over both runs
		"block":    800 - 300 - 200,
		"kernel":   300,
		"add":      200,
		"finalize": 50,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 1000+100 {
		t.Errorf("self times sum to %d, want the roots' 1100", total)
	}
	if got := sortedNames(self); got[0] != "block" || got[1] != "kernel" {
		t.Errorf("sortedNames = %v, want block then kernel first", got)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	var off *tracer // tracing off: every call is a no-op
	off.end(off.begin("x", noParent))

	tr := newTracer("w")
	root := tr.begin("run", noParent)
	child := tr.begin("http.post_runs", root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].Parent != root || tr.spans[root].Parent != noParent {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Workload != "w" || s.EndNS < s.StartNS {
			t.Errorf("bad span %+v", s)
		}
	}
}

// Every SeqNum a manager of any workload can be handed, for any seed,
// lies inside the RNG hierarchy's 1023 experiments, is never 0 (which
// the service reads as "assign one"), and is distinct per run.
func TestSeedToSeqNum(t *testing.T) {
	seeds := []int64{-1_000_000_007, -1, 0, 1, 2, 723, 724, 1023, 1024, 65537, math.MaxInt64, math.MinInt64}
	for _, w := range workloadDefs {
		span := w.seqSpan()
		for _, seed := range seeds {
			base := seqBase(seed, span)
			if base < 1 || base+uint64(span)-1 > maxSeqNum {
				t.Errorf("%s seed %d: SeqNums %d..%d leave [1, %d]", w.name, seed, base, base+uint64(span)-1, maxSeqNum)
			}
			if base != seqBase(seed, span) {
				t.Errorf("%s seed %d: mapping is not a function", w.name, seed)
			}
		}
		if a, b := seqBase(1, span), seqBase(2, span); a == b {
			t.Errorf("%s: seeds 1 and 2 select the same SeqNums", w.name)
		}
	}
	if got := seqBase(defaultSeed, 100); got != 1 {
		t.Errorf("default seed starts at SeqNum %d, want 1", got)
	}
	// Runs on one manager: base, base+1, … — distinct by construction;
	// the span must cover the most runs a manager is ever given.
	for _, w := range workloadDefs {
		if w.mode == modeService && w.seqSpan() < max(w.runsPerRep, 1) {
			t.Errorf("%s: span %d smaller than %d runs per manager", w.name, w.seqSpan(), w.runsPerRep)
		}
	}
}

func TestVerifierCountsFailures(t *testing.T) {
	w := workloadDef{name: "t", l: 100}
	v := newVerifier(w, map[string]string{"7": "aaaaaaaaaaaaaaaa"})
	ok := stat.Report{N: 100}
	v.check(1, ok, "1111111111111111", nil)
	v.check(1, ok, "1111111111111111", nil) // same SeqNum, same bits
	if v.failed != 0 {
		t.Fatalf("clean runs failed: %v", v.firstErr)
	}
	v.check(1, ok, "2222222222222222", nil)                 // a report bit moved between repetitions
	v.check(2, stat.Report{N: 99}, "3333333333333333", nil) // lost a realization
	v.check(7, ok, "bbbbbbbbbbbbbbbb", nil)                 // differs from golden
	v.check(3, ok, "", os.ErrDeadlineExceeded)              // errored
	if v.attempted != 6 || v.failed != 4 {
		t.Errorf("attempted %d failed %d, want 6 and 4", v.attempted, v.failed)
	}
	if v.firstErr == nil || !strings.Contains(v.firstErr.Error(), "earlier run") {
		t.Errorf("first error = %v", v.firstErr)
	}

	pi := newVerifier(workloadDef{name: "pi", l: 1000, check5Sigma: checkPi}, nil)
	pi.check(1, stat.Report{N: 1000, Mean: []float64{0.5}}, "x", nil) // 22σ from π/4
	pi.check(2, stat.Report{N: 1000, Mean: []float64{0.79}}, "y", nil)
	if pi.failed != 1 {
		t.Errorf("5σ check failed %d of 2, want 1", pi.failed)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name    string
		a, b    []float64
		higher  bool
		bound   float64
		verdict string
	}{
		{"A/A", steady, steady, false, 0.10, verdictOK},
		{"latency +5% within 10%", steady, shift(steady, 1.05), false, 0.10, verdictOK},
		{"latency +20% beyond 10%", steady, shift(steady, 1.20), false, 0.10, verdictRegressed},
		{"latency −20% is a gain", steady, shift(steady, 0.80), false, 0.10, verdictOK},
		{"throughput −20% beyond 10%", steady, shift(steady, 0.80), true, 0.10, verdictRegressed},
		{"throughput +20% is a gain", steady, shift(steady, 1.20), true, 0.10, verdictOK},
		{"spread wider than the bound", noisy, noisy, false, 0.10, verdictUnresolved},
		{"one noisy side", steady, noisy, false, 0.10, verdictUnresolved},
		{"one run a side", []float64{100}, []float64{100}, false, 0.10, verdictUnresolved},
	} {
		if _, got := judge(c.a, c.b, c.higher, c.bound); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
	if worse, _ := judge(steady, shift(steady, 0.80), true, 0.10); !near(worse, 0.20) {
		t.Errorf("throughput −20%%: worse = %g, want 0.20", worse)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(manifest, []byte(`{"workloads":[{"name":"w1"},{"name":"w2"}],
		"end_to_end":[{"name":"run_s_p50","unit":"s","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, w2 float64, hash string) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 6; i++ {
			for _, r := range []result{
				{Workload: "w1", summary: summary{Attempted: 10, Metrics: map[string]metric{"run_s_p50": {1 + 0.001*float64(i), "s"}}}, Hashes: map[string]string{"1": "h"}},
				{Workload: "w2", summary: summary{Attempted: 10, Metrics: map[string]metric{"run_s_p50": {w2 + 0.001*float64(i), "s"}}}, Hashes: map[string]string{"1": hash}},
				{Workload: "w2", Trace: true, summary: summary{Metrics: map[string]metric{"run_s_p50": {99, "s"}}}}, // per-layer lines are skipped
			} {
				if err := appendResult(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 2, "h")

	var out bytes.Buffer
	if err := compareFiles(&out, manifest, a, a); err != nil {
		t.Fatalf("A/A: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), verdictOK); n != 6 { // 2 workloads × (metric, failed_frac, hashes)
		t.Errorf("A/A printed %d ok rows, want 6:\n%s", n, out.String())
	}

	out.Reset()
	err := compareFiles(&out, manifest, a, write("b.jsonl", 2.5, "h"))
	if err == nil || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 25%% slower w2 passed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "w1") || strings.Count(out.String(), verdictRegressed) != 1 {
		t.Errorf("only w2's latency row should regress:\n%s", out.String())
	}

	out.Reset()
	if err := compareFiles(&out, manifest, a, write("c.jsonl", 2, "moved")); err == nil {
		t.Errorf("a moved report bit passed:\n%s", out.String())
	}
}

// benchmarkJSON mirrors BENCHMARK.json, which must have exactly these
// keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// TestQuickSmoke drives every workload through both passes in the
// smoke mode (1 repetition, L÷20): every path runs, every report is
// verified, and each pass emits exactly the metrics BENCHMARK.json
// declares for it, with their units. It asserts nothing about time.
func TestQuickSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	endToEnd := map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	sameMetrics := func(t *testing.T, got map[string]metric, want map[string]string) {
		t.Helper()
		for name, unit := range want {
			m, ok := got[name]
			switch {
			case !ok:
				t.Errorf("metric %s is declared but not emitted", name)
			case m.Unit != unit:
				t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("metric %s = %g", name, m.Value)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("metric %s is emitted but not declared in BENCHMARK.json", name)
			}
		}
	}
	for _, w := range workloadDefs {
		w := w.quick()
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 3, seconds: 0.5, quick: true, dataDir: t.TempDir(), outDir: t.TempDir()}
			res, err := endToEndPass(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 2 || res.Failed != 0 {
				t.Errorf("end-to-end: correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Error)
			}
			sameMetrics(t, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, must be positive", name, m.Value)
				}
			}

			res, err = perLayerPass(w, opt, machineFacts(opt.dataDir))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("per-layer: correct=%v failed=%d: %s", res.Correct, res.Failed, res.Error)
			}
			sameMetrics(t, res.Metrics, perLayer)
			raw, err := os.ReadFile(filepath.Join(opt.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != w.name {
				t.Errorf("trace file: %v, %d spans, workload %q", err, len(tf.Spans), tf.Workload)
			}
		})
	}
}

// The golden file covers every SeqNum the default seed reaches on this
// architecture, so at the default seed no run goes unchecked.
func TestGoldenCoversDefaultSeed(t *testing.T) {
	for _, w := range workloadDefs {
		g := goldenFor(w.name)
		if g == nil {
			t.Skipf("no golden hashes recorded for this GOARCH")
		}
		if len(g) != w.seqSpan() {
			t.Errorf("%s: golden holds %d SeqNums, the default seed reaches %d", w.name, len(g), w.seqSpan())
		}
	}
}
