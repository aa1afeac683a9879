package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/runmgr"
	"parmonc/internal/stat"
	"parmonc/internal/store"
	"parmonc/internal/workload"

	_ "parmonc/internal/workload/builtin"
)

// maxSeqNum is the largest experiment subsequence number the default
// RNG hierarchy holds.
const maxSeqNum = 1023

// seqBase maps the benchmark seed to the first experiment subsequence
// number of a workload that needs span consecutive ones. The seed
// selects SeqNums and nothing else; base+span−1 never exceeds the
// hierarchy's capacity, and 0 ("auto" in the service) is never used.
func seqBase(seed int64, span int) uint64 {
	room := int64(maxSeqNum - span + 1)
	return uint64(1 + ((seed-1)%room+room)%room)
}

// hashMoments is the determinism fingerprint of a result: SHA-256 over
// the sample volume, the dimensions and the raw bits of two moment
// vectors. Wall-clock fields (simulation time) are left out.
func hashMoments(n int64, nrow, ncol int, a, b []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(n))
	put(uint64(nrow))
	put(uint64(ncol))
	for _, xs := range [][]float64{a, b} {
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifier decides whether each run's output is correct and counts
// the ones that are not. A run fails if it errors, if its sample
// volume is not L, if its mean is outside 5σ of the analytic value, if
// its report hash differs from an earlier run of the same SeqNum, or
// if it differs from golden.json.
type verifier struct {
	w         workloadDef
	golden    map[string]string // SeqNum → hash; nil when none applies
	anyBits   bool              // skip the hash checks: the runs are not bit-reproducible
	seen      map[uint64]string
	attempted int
	failed    int
	firstErr  error
}

func newVerifier(w workloadDef, golden map[string]string) *verifier {
	return &verifier{w: w, golden: golden, seen: map[uint64]string{}}
}

func (v *verifier) check(seq uint64, rep stat.Report, hash string, runErr error) {
	v.attempted++
	err := runErr
	if err == nil && rep.N != v.w.l {
		err = fmt.Errorf("report N = %d, want %d", rep.N, v.w.l)
	}
	if err == nil && v.w.check5Sigma != nil {
		err = v.w.check5Sigma(rep)
	}
	if err == nil && !v.anyBits {
		if prev, ok := v.seen[seq]; ok && prev != hash {
			err = fmt.Errorf("report hash %s differs from the earlier run's %s", hash[:12], prev[:12])
		}
		v.seen[seq] = hash
	}
	if err == nil {
		if want, ok := v.golden[fmt.Sprint(seq)]; ok && want != hash {
			err = fmt.Errorf("report hash %s differs from golden %s", hash[:12], want[:12])
		}
	}
	if err != nil {
		v.failed++
		if v.firstErr == nil {
			v.firstErr = fmt.Errorf("%s SeqNum %d: %w", v.w.name, seq, err)
		}
	}
}

// fleetCounts accumulates what the fleet says about itself.
type fleetCounts struct {
	realizations, windows, batches, retries int64
	batchSizeSum                            float64 // server side: Σ windows over PushBatch RPCs
	batchRPCs                               int64   // server side: PushBatch RPCs
}

// env is a workload that has been set up: resolved, its long-lived
// service (if any) started.
type env struct {
	w       workloadDef
	dataDir string
	base    uint64 // first SeqNum
	tcp     bool
	ver     *verifier

	id         workload.Identity
	rawFactory core.Factory // as the registry gives it
	factory    core.Factory // spaced; what local runs use

	svc      *service // long-lived manager; nil for fresh-per-rep and local
	svcRoot  string
	nextRun  int
	lastRoot string // data root of the last finished fresh-per-rep manager
	fleet    fleetCounts
}

// spaced wraps a realization factory so that consecutive workers'
// small allocations do not sit next to each other. core.RunFactory
// builds every worker's routine back to back on one goroutine, and a
// routine whose hot state is a few 16-byte slices (the SDE integrator)
// then shares cache lines with its neighbour's on some runs and not on
// others: the same run is up to 2× slower, at random. That is a defect
// of the program, reported by the per-layer pass as
// workload.kernel_contended_ns; the end-to-end workloads step around it
// so that their figures are steady enough to gate anything else. The
// spacer is a run of small allocations kept alive with the routine.
func spaced(f core.Factory) core.Factory {
	return func(worker int) (core.Realization, error) {
		r, err := f(worker)
		if err != nil {
			return nil, err
		}
		spacer := make([]*[2]float64, 32) // 32 × 16 B: eight cache lines
		for i := range spacer {
			spacer[i] = new([2]float64)
		}
		return func(src *rng.Stream, out []float64) error {
			err := r(src, out)
			runtime.KeepAlive(spacer)
			return err
		}, nil
	}
}

// repResult is one repetition: its runs' seconds, their sum, and the
// CPU seconds the process used meanwhile.
type repResult struct {
	seconds float64
	runs    []float64
	cpu     float64
}

func newEnv(w workloadDef, dataDir string, seed int64, tcp bool, ver *verifier) (*env, error) {
	e := &env{w: w, dataDir: dataDir, base: seqBase(seed, w.seqSpan()), tcp: tcp, ver: ver}
	def, values, err := w.scenario.Resolve()
	if err != nil {
		return nil, err
	}
	if e.id, err = def.Identity(values); err != nil {
		return nil, err
	}
	factory, err := def.Factory(values)
	if err != nil {
		return nil, err
	}
	e.rawFactory, e.factory = factory, spaced(factory)
	if w.mode == modeService && !w.freshPerRep {
		if e.svcRoot, err = os.MkdirTemp(dataDir, "svc-"); err != nil {
			return nil, err
		}
		if e.svc, err = startService(e.svcRoot, tcp); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// close stops the long-lived service and removes the env's data. It
// leaves lastRoot/svcRoot in place when keepRoot is set, returning the
// path for the recovery measurement.
func (e *env) close(keepRoot bool) (string, error) {
	var err error
	root := e.lastRoot
	if e.svc != nil {
		err = e.stopService(e.svc)
		e.svc = nil
		root = e.svcRoot
	}
	if !keepRoot && root != "" {
		os.RemoveAll(root)
		root = ""
	}
	return root, err
}

func (e *env) stopService(s *service) error {
	// Read the server-side batch histogram before the manager goes.
	snap := s.reg.Snapshot()
	e.fleet.batchSizeSum += snap["parmonc_fleet_batch_size_sum"]
	e.fleet.batchRPCs += int64(snap["parmonc_fleet_batch_size_count"])
	reports, err := s.stop()
	for _, r := range reports {
		e.fleet.realizations += r.Realizations
		e.fleet.windows += r.Pushes
		e.fleet.batches += r.Batches
		e.fleet.retries += r.Retries
	}
	return err
}

// rep runs one repetition. Run failures are counted by the verifier,
// not returned; the error is for a harness fault (cannot start a
// service, cannot make a directory).
func (e *env) rep(tr *tracer) (repResult, error) {
	var res repResult
	add := func(sec float64) {
		res.runs = append(res.runs, sec)
		res.seconds += sec
	}
	cpu0 := cpuSeconds()
	switch {
	case e.w.mode == modeLocal:
		add(e.localRun(e.base))
	case !e.w.freshPerRep:
		if e.nextRun >= maxRepsPerManager {
			return res, fmt.Errorf("%s: manager already hosts %d runs", e.w.name, e.nextRun)
		}
		add(e.serviceRun(e.svc, e.base+uint64(e.nextRun), tr))
		e.nextRun++
	default:
		root, err := os.MkdirTemp(e.dataDir, "svc-")
		if err != nil {
			return res, err
		}
		s, err := startService(root, e.tcp)
		if err != nil {
			return res, err
		}
		cpu0 = cpuSeconds() // starting and stopping the manager is not timed
		for i := 0; i < e.w.runsPerRep; i++ {
			add(e.serviceRun(s, e.base+uint64(i), tr))
		}
		res.cpu = cpuSeconds() - cpu0
		if err := e.stopService(s); err != nil {
			return res, err
		}
		if e.lastRoot != "" {
			os.RemoveAll(e.lastRoot)
		}
		e.lastRoot = root
		return res, nil
	}
	res.cpu = cpuSeconds() - cpu0
	return res, nil
}

// localRun is one core.RunFactory run, timed from the call until the
// final checkpoint has been read back from disk.
func (e *env) localRun(seq uint64) float64 {
	wd, err := os.MkdirTemp(e.dataDir, "run-")
	if err != nil {
		e.ver.check(seq, stat.Report{}, "", err)
		return 0
	}
	defer os.RemoveAll(wd)
	cfg := core.Config{
		Nrow: e.id.Nrow, Ncol: e.id.Ncol,
		MaxSamples:     e.w.l,
		SeqNum:         seq,
		Workers:        workers,
		PassPeriod:     e.w.passPeriod,
		AverPeriod:     e.w.averPeriod,
		StrictExchange: e.w.strict,
		WorkDir:        wd,
		Workload:       e.id.Name,
		Fingerprint:    e.id.Fingerprint(),
		Scenario:       e.w.scenario.Canonical(),
	}
	t0 := time.Now()
	res, err := core.RunFactory(context.Background(), cfg, e.factory)
	var snap stat.Snapshot
	if err == nil {
		snap, err = readBack(wd)
	}
	sec := time.Since(t0).Seconds()
	if err == nil && snap.N != res.Report.N {
		err = fmt.Errorf("checkpoint on disk holds N = %d, the returned report %d", snap.N, res.Report.N)
	}
	e.ver.check(seq, res.Report, hashMoments(snap.N, snap.Nrow, snap.Ncol, snap.Sum, snap.Sum2), err)
	return sec
}

// readBack loads the final checkpoint a finished local run left in wd.
func readBack(wd string) (stat.Snapshot, error) {
	dir, err := store.Open(wd)
	if err != nil {
		return stat.Snapshot{}, err
	}
	snap, _, err := dir.LoadCheckpoint()
	return snap, err
}

// serviceRun is one run through the control API.
func (e *env) serviceRun(s *service, seq uint64, tr *tracer) float64 {
	payload, sec, err := s.run(runmgr.Submission{
		Scenario:   e.w.scenario,
		MaxSamples: e.w.l,
		SeqNum:     seq,
		PassEvery:  e.w.passEvery,
	}, tr)
	rep := stat.Report{Nrow: payload.Nrow, Ncol: payload.Ncol, N: payload.N,
		Mean: floats(payload.Mean), Var: floats(payload.Var)}
	e.ver.check(seq, rep, hashMoments(rep.N, rep.Nrow, rep.Ncol, rep.Mean, rep.Var), err)
	return sec
}

func floats(xs []runmgr.JSONFloat) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// sample is the raw timing of one measuring window.
type sample struct {
	setupS []float64 // one per set-up
	repS   []float64 // one per timed repetition
	runS   []float64 // one per timed run
	calS   []float64 // calibration bursts: one before each timed repetition and one after the last

	setupCPU, repCPU float64 // process CPU seconds during the set-ups and the timed repetitions
}

// cpuShare is the share of wall seconds during which the workers'
// CPUs were busy.
func cpuShare(cpu float64, wall []float64) float64 {
	var total float64
	for _, s := range wall {
		total += s
	}
	return min(max(cpu/(workers*total), 0), 1)
}

// endToEnd turns a sample into the end-to-end metrics, as measured
// (raw) and converted to reference machine speed (see calibrate.go).
func (s sample) endToEnd(w workloadDef) (converted, raw map[string]metric, speed speedNote) {
	perRep := float64(w.l) * float64(max(w.runsPerRep, 1))
	metrics := func(run, setup float64) map[string]metric {
		return map[string]metric{
			"realizations_per_s": {perRep / (median(s.repS) * run), "1/s"},
			"run_s_p50":          {median(s.runS) * run, "s"},
			"setup_s":            {median(s.setupS) * setup, "s"},
		}
	}
	speed = speedNote{CalSeconds: median(s.calS), CPUShare: cpuShare(s.repCPU, s.repS), SetupCPUShare: cpuShare(s.setupCPU, s.setupS)}
	speed.Factor = speedFactor(speed.CalSeconds, speed.CPUShare)
	speed.SetupFactor = speedFactor(speed.CalSeconds, speed.SetupCPUShare)
	return metrics(speed.Factor, speed.SetupFactor), metrics(1, 1), speed
}

// speedNote records how a window's times were converted.
type speedNote struct {
	CalSeconds    float64 `json:"cal_seconds"`     // median calibration burst
	CPUShare      float64 `json:"cpu_share"`       // of the timed repetitions
	Factor        float64 `json:"factor"`          // applied to run and repetition seconds
	SetupCPUShare float64 `json:"setup_cpu_share"` // of the set-ups
	SetupFactor   float64 `json:"setup_factor"`    // applied to setup_s
}

// options are the knobs of one measuring window.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	dataDir string
	outDir  string
}

// setups is how many times a run sets the workload up; setup_s is
// their median. The first one also pays the process's lazy
// initialisation (gob type tables, leap tables).
const setups = 3

// minReps is the fewest timed repetitions a window holds, however
// short --seconds is.
const minReps = 3

// measure sets the workload up (several times, keeping the last), then
// repeats it for opt.seconds, tracing the timed repetitions if given a
// tracer. It returns the live env so the caller can read its counters
// and close it.
func measure(w workloadDef, opt options, tcp bool, ver *verifier, nSetups int, tr *tracer) (*env, sample, error) {
	var s sample
	var e *env
	for i := 0; i < nSetups; i++ {
		if e != nil {
			if _, err := e.close(false); err != nil {
				return nil, s, err
			}
		}
		t0, cpu0 := time.Now(), cpuSeconds()
		var err error
		if e, err = newEnv(w, opt.dataDir, opt.seed, tcp, ver); err != nil {
			return nil, s, err
		}
		if _, err := e.rep(nil); err != nil { // the warm-up repetition
			return nil, s, err
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		s.setupCPU += cpuSeconds() - cpu0
	}
	reps := minReps
	if opt.quick {
		reps = 1
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	s.calS = append(s.calS, calibrate())
	for r := 0; r < reps || (!opt.quick && time.Now().Before(deadline)); r++ {
		if !w.freshPerRep && w.mode == modeService && e.nextRun >= maxRepsPerManager {
			break
		}
		res, err := e.rep(tr)
		if err != nil {
			return nil, s, err
		}
		s.repS = append(s.repS, res.seconds)
		s.runS = append(s.runS, res.runs...)
		s.repCPU += res.cpu
		s.calS = append(s.calS, calibrate())
	}
	return e, s, nil
}
