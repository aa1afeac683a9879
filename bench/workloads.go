package main

import (
	"fmt"
	"math"
	"time"

	"parmonc/internal/stat"
	"parmonc/internal/workload"
)

// Load shape, fixed for every workload and never derived from nproc:
// a closed loop in one process with 2 workers (goroutines or fleet
// connections) and 1 HTTP client.
const workers = 2

// mode selects which public entry point drives a workload.
type mode int

const (
	modeLocal   mode = iota // core.RunFactory, goroutine workers
	modeService             // runmgr.Manager: POST /runs + TCP fleet
)

// workloadDef is one named workload. The names are the ledger's keys:
// later issues cite them, so they never change. Sizes are chosen so one
// repetition takes about a second on the 2-core reference box — short
// enough that a measuring window holds many repetitions and medians are
// steady, long enough that start-up and the final save stay small.
type workloadDef struct {
	name string
	why  string
	mode mode

	scenario workload.Spec
	l        int64 // realizations per run

	// Local runs.
	strict     bool
	passPeriod time.Duration
	averPeriod time.Duration

	// Service runs.
	passEvery   int64
	runsPerRep  int  // sequential runs in one repetition
	freshPerRep bool // a new manager and data root every repetition

	// check5Sigma compares the report against the analytic value where
	// one exists; nil where none does.
	check5Sigma func(rep stat.Report) error
}

// seqSpan is how many experiment subsequence numbers one manager of the
// workload may consume; the seed mapping keeps base+span within the
// RNG hierarchy's 1023-experiment capacity.
func (w workloadDef) seqSpan() int {
	switch {
	case w.mode == modeLocal:
		return 1
	case w.freshPerRep:
		return w.runsPerRep
	default:
		return maxRepsPerManager
	}
}

// maxRepsPerManager caps the runs a long-lived manager hosts in one
// benchmark run. A manager refuses its 1024th run because terminal
// runs keep their SeqNum; staying far below also keeps golden.json
// small.
const maxRepsPerManager = 48

var workloadDefs = []workloadDef{
	{
		name: "pi.local",
		why:  "33 ns kernel in-process: the library's own per-realization loop (stream positioning, timers, accumulator add) is ~94% of the time, so RNG and worker-loop work shows here",
		mode: modeLocal, scenario: workload.Spec{Workload: "pi"}, l: 4_000_000,
		passPeriod: 100 * time.Millisecond, averPeriod: time.Second,
		check5Sigma: checkPi,
	},
	{
		name: "diffusion.local",
		why:  "the paper's Sec. 4 SDE, 100x2 matrix, ~0.9 ms kernel: kernel-bound control on which exchange, wire and durability work must show no change",
		mode: modeLocal, scenario: workload.Spec{Workload: "diffusion"}, l: 800,
	},
	{
		name: "density.strict",
		why:  "Fig. 2's strict per-realization exchange with a wide 1x2000 matrix and a 33 ns kernel: snapshot, collector push and fold dominate",
		mode: modeLocal, scenario: workload.Spec{Workload: "density", Params: workload.Values{"bins": 2000}}, l: 80_000,
		strict:      true,
		check5Sigma: checkDensity,
	},
	{
		name: "pi.fleet-strict",
		why:  "strict exchange (pass_every=1) over the real wire on one long-lived manager: net/rpc, gob, PushBatch and the dedup ledger dominate the same kernel and RNG as pi.local",
		mode: modeService, scenario: workload.Spec{Workload: "pi"}, l: 300_000,
		passEvery: 1, runsPerRep: 1,
		check5Sigma: checkPi,
	},
	{
		name: "pi.service-short",
		why:  "100 sequential 2000-realization runs per fresh manager: fixed per-run cost (WAL and manifest fsyncs, admission, long-poll wake, final save, HTTP) dominates",
		mode: modeService, scenario: workload.Spec{Workload: "pi"}, l: 2000,
		passEvery: 100, runsPerRep: 100, freshPerRep: true,
		check5Sigma: checkPi,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload for the smoke mode: L÷20 and, for the
// many-run workload, a tenth of the runs. Reports of a shrunken
// workload have no golden hash.
func (w workloadDef) quick() workloadDef {
	w.l /= 20
	if w.runsPerRep > 1 {
		w.runsPerRep /= 10
	}
	return w
}

// relaxed returns the workload with its exchange relaxed to the
// periodic shape (pi.local's periods, or pass_every=100): run beside
// the strict original it shows what per-realization exchange costs. ok
// is false for a workload that does not exchange strictly.
func (w workloadDef) relaxed() (relaxed workloadDef, ok bool) {
	switch {
	case w.strict:
		w.strict, w.passPeriod, w.averPeriod = false, 100*time.Millisecond, time.Second
		return w, true
	case w.mode == modeService && w.passEvery == 1:
		w.passEvery = 100
		return w, true
	}
	return w, false
}

// within5Sigma reports whether mean is inside 5 standard errors of
// want. The standard error comes from the analytic variance, so a
// cell that happens to have sample variance 0 is still judged on its
// true spread.
func within5Sigma(what string, mean, want, variance float64, n int64) error {
	sigma := math.Sqrt(variance / float64(n))
	if d := math.Abs(mean - want); d > 5*sigma {
		return fmt.Errorf("%s: mean %.6g is %.1fσ from the analytic %.6g", what, mean, d/sigma, want)
	}
	return nil
}

func checkPi(rep stat.Report) error {
	const p = math.Pi / 4
	return within5Sigma("pi", rep.Mean[0], p, p*(1-p), rep.N)
}

// densityGroups is how many equal groups of adjacent bins checkDensity
// pools: single bins of a 2000-bin histogram hold so few samples that
// their Poisson tails would cross 5σ on some seeds.
const densityGroups = 20

// checkDensity compares the Exp(1) histogram on [0,3) with the
// analytic bin mass, pooled over groups of adjacent bins. Bin entries
// are indicators scaled by 1/width, so mean×width estimates the mass.
func checkDensity(rep stat.Report) error {
	bins := rep.Ncol
	width := 3.0 / float64(bins)
	per := bins / densityGroups
	for g := 0; g < densityGroups; g++ {
		var got float64
		for j := g * per; j < (g+1)*per; j++ {
			got += rep.Mean[j] * width
		}
		a, b := float64(g*per)*width, float64((g+1)*per)*width
		p := math.Exp(-a) - math.Exp(-b)
		if err := within5Sigma(fmt.Sprintf("density bins %d-%d", g*per+1, (g+1)*per), got, p, p*(1-p), rep.N); err != nil {
			return err
		}
	}
	return nil
}
