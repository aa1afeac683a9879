// Command bench is the PARMONC performance ledger: five named
// workloads driven only through the library's public entry points,
// end-to-end realizations/s and run latency with every report
// verified, and — in a separate traced pass — a per-layer budget
// measured from outside. See README.md.
//
//	go run ./bench                              every workload, both passes
//	go run ./bench -workload pi.local           one workload, end to end
//	go run ./bench -workload pi.local -trace 1  its per-layer pass
//	go run ./bench -compare a.jsonl b.jsonl     A/A or A/B verdicts
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the contract's result object: the last line of standard
// output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the machine-readable outcome of one measuring window: the
// summary plus what -compare and a reader need, one line of the -out
// file.
type result struct {
	summary

	Workload string  `json:"workload,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Trace    bool    `json:"trace,omitempty"`
	Quick    bool    `json:"quick,omitempty"`
	Reps     int     `json:"reps,omitempty"`
	Runs     int     `json:"runs,omitempty"`
	// RunS and RepS are min, median and max of the timed runs' and
	// repetitions' seconds.
	RunS    [3]float64 `json:"run_s_min_med_max"`
	RepS    [3]float64 `json:"rep_s_min_med_max"`
	Machine machine    `json:"machine"`
	// Raw holds the end-to-end metrics as measured, before conversion
	// to reference machine speed; Speed says how they were converted.
	Raw   map[string]metric `json:"raw,omitempty"`
	Speed *speedNote        `json:"speed,omitempty"`
	// Hashes are the report fingerprints by SeqNum: two sets of runs of
	// one commit must agree on them exactly.
	Hashes map[string]string `json:"hashes,omitempty"`
	Error  string            `json:"error,omitempty"`

	notes string // human-readable extras printed after the metrics
}

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenFor returns the recorded report hashes (SeqNum → SHA-256) of a
// workload on this architecture. Hashes are keyed by SeqNum, not seed:
// a seed only selects SeqNums, so any seed that lands on a recorded
// SeqNum is checked.
func goldenFor(workload string) map[string]string {
	var g map[string]map[string]map[string]string // GOARCH → workload → SeqNum → hash
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil
	}
	return g[runtime.GOARCH][workload]
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all five, both passes)")
		seed     = flag.Int64("seed", defaultSeed, "selects the experiment subsequence numbers (SeqNum) of the runs, nothing else")
		seconds  = flag.Float64("seconds", 10, "length of one measuring window")
		trace    = flag.Int("trace", 0, "1: the traced per-layer pass instead of the end-to-end pass")
		quick    = flag.Bool("quick", false, "smoke mode: 1 repetition, L÷20, no golden check")
		dataDir  = flag.String("data-dir", "", "where runs keep their data (default: a temp dir under -out-dir; must not be tmpfs, or fsync is free)")
		outDir   = flag.String("out-dir", filepath.Join("bench", "out"), "where traces and the default data dir go")
		out      = flag.String("out", "", "append each result as one JSON line to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: medians, quartiles, delta against the bound, verdict")
		manifest = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads the bounds from")
		golden   = flag.String("write-golden", "", "rerun every SeqNum the default seed can reach and record this GOARCH's report hashes in the named golden file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, dataDir: *dataDir, outDir: *outDir}
	if opt.dataDir == "" {
		tmp, err := os.MkdirTemp(*outDir, "data-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		opt.dataDir = tmp
	} else if err := os.MkdirAll(opt.dataDir, 0o755); err != nil {
		return err
	}
	facts := machineFacts(opt.dataDir)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d cpu=%q %s %s commit=%s data-dir-fs=%s\n",
		facts.NProc, facts.GOMAXPROCS, facts.CPUModel, facts.GoVersion, facts.GOARCH, facts.Commit, facts.DataDirFS)

	if *golden != "" {
		return writeGolden(opt, *golden)
	}

	defs := workloadDefs
	passes := []bool{false, true}
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		defs = []workloadDef{w}
		passes = []bool{*trace != 0}
	}

	var last result
	failed := false
	for _, w := range defs {
		if opt.quick {
			w = w.quick()
		}
		for _, traced := range passes {
			var res result
			var err error
			if traced {
				res, err = perLayerPass(w, opt, facts)
			} else {
				res, err = endToEndPass(w, opt)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.Workload, res.Seed, res.Seconds, res.Trace, res.Quick, res.Machine = w.name, opt.seed, opt.seconds, traced, opt.quick, facts
			printResult(res)
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					return err
				}
			}
			failed = failed || !res.Correct
			last = res
		}
	}

	// The last line of standard output is the contract's result object.
	line, err := json.Marshal(last.summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed && len(defs) > 1 {
		return errors.New("some runs failed verification")
	}
	return nil
}

// endToEndPass is the untraced pass: the end-to-end metrics.
func endToEndPass(w workloadDef, opt options) (result, error) {
	ver := newVerifier(w, goldenIfFull(w, opt))
	e, s, err := measure(w, opt, true, ver, setupsFor(opt), nil)
	if err != nil {
		return result{}, err
	}
	if _, err := e.close(false); err != nil {
		return result{}, err
	}
	converted, raw, speed := s.endToEnd(w)
	res := finish(ver, converted, s)
	res.Raw, res.Speed = raw, &speed
	return res, nil
}

func setupsFor(opt options) int {
	if opt.quick {
		return 1
	}
	return setups
}

func goldenIfFull(w workloadDef, opt options) map[string]string {
	if opt.quick {
		return nil
	}
	return goldenFor(w.name)
}

func finish(ver *verifier, metrics map[string]metric, s sample) result {
	res := result{
		summary: summary{Correct: ver.failed == 0, Attempted: ver.attempted, Failed: ver.failed, Metrics: metrics},
		Reps:    len(s.repS),
		Runs:    len(s.runS),
		RunS:    [3]float64{percentile(s.runS, 0), median(s.runS), percentile(s.runS, 1)},
		RepS:    [3]float64{percentile(s.repS, 0), median(s.repS), percentile(s.repS, 1)},
		Hashes:  map[string]string{},
	}
	for seq, h := range ver.seen {
		res.Hashes[fmt.Sprint(seq)] = h
	}
	if ver.firstErr != nil {
		res.Error = ver.firstErr.Error()
	}
	return res
}

func printResult(r result) {
	pass := "end-to-end"
	if r.Trace {
		pass = "per-layer"
	}
	fmt.Printf("\n== %s  %s  seed=%d  reps=%d runs=%d  attempted=%d failed=%d\n",
		r.Workload, pass, r.Seed, r.Reps, r.Runs, r.Attempted, r.Failed)
	fmt.Printf("   run seconds: n=%d min %.6g median %.6g max %.6g; repetition seconds: n=%d min %.6g median %.6g max %.6g\n",
		r.Runs, r.RunS[0], r.RunS[1], r.RunS[2], r.Reps, r.RepS[0], r.RepS[1], r.RepS[2])
	if r.Error != "" {
		fmt.Printf("   first failure: %s\n", r.Error)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-34s %16.6g %s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if raw, ok := r.Raw[n]; ok {
			fmt.Printf("   (as measured: %.6g)", raw.Value)
		}
		fmt.Println()
	}
	if r.Speed != nil {
		fmt.Printf("   converted to reference speed: calibration %.4f s against %.4f s; CPU share %.2f, factor %.3f; set-up CPU share %.2f, factor %.3f\n",
			r.Speed.CalSeconds, refCalSeconds, r.Speed.CPUShare, r.Speed.Factor, r.Speed.SetupCPUShare, r.Speed.SetupFactor)
	}
	fmt.Print(r.notes)
}

func appendResult(path string, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
