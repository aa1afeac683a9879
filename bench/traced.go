package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/rng"
	"parmonc/internal/runmgr"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// traceBlock is how many realizations one block span of the traced
// worker loop covers.
const traceBlock = 1024

// blockAcc sums the calls one layer receives during a block.
type blockAcc struct {
	busy        time.Duration
	calls       int64
	first, last time.Time
}

func (b *blockAcc) add(t0, t1 time.Time) {
	if b.calls == 0 {
		b.first = t0
	}
	b.busy += t1.Sub(t0)
	b.calls++
	b.last = t1
}

func (b *blockAcc) flush(tr *tracer, name string, parent int) {
	tr.block(name, parent, b.first, b.last, b.busy, b.calls)
	*b = blockAcc{}
}

// harnessLocalRun is the harness's own single-threaded rendering of
// core.RunFactory: the same public functions in core.runWorker's order
// (position → kernel → AddTimed → Snapshot → Collector.Push →
// Finalize). It executes the run's two leases one after the other
// under the worker indices the real run would use, so the collector
// folds the same shards and the report must carry the hash of the real
// run. With a tracer it takes a timestamp at every layer boundary and
// records block spans; without one it reads the clock only where
// core.runWorker does, which makes the pair of them the tracing
// overhead. It returns the seconds the worker loops took (without
// set-up and Finalize).
func harnessLocalRun(e *env, tr *tracer) (float64, error) {
	w := e.w
	wd, err := os.MkdirTemp(e.dataDir, "traced-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(wd)
	root := tr.begin("run", noParent)

	passPeriod, averPeriod := w.passPeriod, w.averPeriod
	if passPeriod == 0 {
		passPeriod = time.Minute // core.Config's defaults
	}
	if averPeriod == 0 {
		averPeriod = 2 * time.Minute
	}
	params := rng.DefaultParams()
	dir, err := store.Open(wd)
	if err != nil {
		return 0, err
	}
	meta := store.RunMeta{SeqNum: e.base, Nrow: e.id.Nrow, Ncol: e.id.Ncol, MaxSV: w.l, Workers: workers,
		Params: params, Gamma: stat.DefaultConfidenceCoefficient, StartedAt: time.Now(),
		Workload: e.id.Name, Fingerprint: e.id.Fingerprint(), Scenario: w.scenario.Canonical()}
	eng, err := collect.New(dir, meta, collect.Config{AverPeriod: averPeriod})
	if err != nil {
		return 0, err
	}
	routines := make([]core.Realization, workers)
	for m := range routines {
		eng.Register(m)
		if routines[m], err = e.factory(m); err != nil {
			return 0, err
		}
	}

	loopStart := time.Now()
	leases := collect.PartitionLeases(w.l, (w.l+workers-1)/workers)
	for i, l := range leases {
		m := i % workers
		if err := tracedLease(tr, root, eng, params, e.base, m, l, routines[m], e.id.Nrow, e.id.Ncol, w.strict, passPeriod); err != nil {
			return 0, err
		}
	}
	loopSeconds := time.Since(loopStart).Seconds()

	sp := tr.begin("collect.finalize", root)
	rep, err := eng.Finalize()
	tr.end(sp)
	var snap stat.Snapshot
	if err == nil {
		sp = tr.begin("store.read_back", root)
		snap, err = readBack(wd)
		tr.end(sp)
	}
	tr.end(root)
	e.ver.check(e.base, rep, hashMoments(snap.N, snap.Nrow, snap.Ncol, snap.Sum, snap.Sum2), err)
	return loopSeconds, nil
}

// tracedLease runs one substream lease as worker m.
func tracedLease(tr *tracer, root int, eng *collect.Collector, params rng.Params, seq uint64, m int, l collect.Lease,
	realize core.Realization, nrow, ncol int, strict bool, passPeriod time.Duration) error {
	local := stat.New(nrow, ncol)
	out := make([]float64, nrow*ncol)
	var position, kernel, add, snapshot, push blockAcc
	var stream *rng.Stream
	lastPass := time.Now()
	block := tr.begin("core.worker_block", root)
	// stamp reads the clock at the boundaries only the tracer needs;
	// the reads core.runWorker makes itself stay time.Now.
	stamp := time.Now
	if tr == nil {
		stamp = func() time.Time { return time.Time{} }
	}

	exchange := func(t3 time.Time) (time.Time, error) {
		snap := local.Snapshot()
		t4 := stamp()
		if err := eng.Push(m, snap); err != nil {
			return t4, err
		}
		t5 := stamp()
		local.Reset()
		t6 := time.Now() // core's lastPass
		if tr != nil {
			snapshot.add(t3, t4)
			push.add(t4, t5)
			snapshot.add(t5, t6)
		}
		return t6, nil
	}

	for k := int64(0); k < l.Count; k++ {
		if eng.StopSatisfied() {
			break
		}
		for i := range out {
			out[i] = 0
		}
		t0 := stamp()
		var err error
		if k == 0 {
			stream, err = rng.NewStream(params, rng.Coord{Experiment: seq, Processor: l.Proc, Realization: l.Start})
		} else {
			err = stream.NextRealization()
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := realize(stream, out); err != nil {
			return fmt.Errorf("realization %d: %w", k, err)
		}
		t2 := time.Now()
		if err := local.AddTimed(out, t2.Sub(t1)); err != nil {
			return err
		}
		t3 := time.Now() // core's time.Since(lastPass)
		if tr != nil {
			position.add(t0, t1)
			kernel.add(t1, t2)
			add.add(t2, t3)
		}
		if strict || t3.Sub(lastPass) >= passPeriod {
			if lastPass, err = exchange(t3); err != nil {
				return err
			}
		}
		if (k+1)%traceBlock == 0 || k == l.Count-1 {
			if k == l.Count-1 && local.N() > 0 { // the worker's final flush
				if _, err := exchange(time.Now()); err != nil {
					return err
				}
			}
			if tr != nil {
				position.flush(tr, "rng.position", block)
				kernel.flush(tr, "workload.kernel", block)
				add.flush(tr, "stat.add", block)
				snapshot.flush(tr, "stat.snapshot", block)
				push.flush(tr, "collect.push", block)
				tr.end(block)
				if k != l.Count-1 {
					block = tr.begin("core.worker_block", root)
				}
			}
		}
	}
	return nil
}

// perLayerPass is the traced pass of one workload. Inside one window
// it measures, in order: the untraced end-to-end figure (one set-up, a
// shorter window), the layer microbenchmarks at the workload's shape,
// and the harness's own rendering of the workload with tracing off and
// on — for the service workloads also the same runs on the in-process
// fleet, whose difference from the TCP runs is the transport's cost.
func perLayerPass(w workloadDef, opt options, facts machine) (result, error) {
	ver := newVerifier(w, goldenIfFull(w, opt))
	share := func(f float64) options {
		o := opt
		o.seconds = f * opt.seconds
		return o
	}

	// 1. Tracing off, through the real entry point.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	e, s, err := measure(w, share(0.3), true, ver, 1, nil)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&ms1)
	root, err := e.close(true)
	if err != nil {
		return result{}, err
	}
	realizations := float64(w.l) * float64(max(w.runsPerRep, 1)) * float64(len(s.repS)+1)
	p50 := median(s.runS)
	perRealNS := workers * p50 / float64(w.l) * 1e9 // per realization, per worker

	// How long a restarted manager takes to replay the data root the
	// runs left behind, and how many WAL records a run wrote to it.
	var recoverS, walPerRun float64
	if root != "" {
		runsOnRoot := len(s.runS) + 1 // the long-lived manager's, warm-up included
		if w.freshPerRep {
			runsOnRoot = w.runsPerRep
		}
		if replay, err := store.ReadWAL(filepath.Join(root, store.WALFile)); err == nil {
			walPerRun = float64(len(replay.Records)) / float64(runsOnRoot)
		}
		t0 := time.Now()
		mgr, err := runmgr.New(managerConfig(root, nil))
		if err != nil {
			return result{}, fmt.Errorf("reopening %s: %w", root, err)
		}
		recoverS = time.Since(t0).Seconds()
		mgr.Close()
		os.RemoveAll(root)
	}

	// What strict exchange costs end to end: the same workload with
	// periodic exchange, a few repetitions.
	strictSlowdown := 1.0
	if rw, ok := w.relaxed(); ok {
		// With periodic exchange the grouping of a worker's pushes follows
		// the clock, and so do the last bits of non-integer sums: N and
		// the 5σ check still apply, hash equality does not.
		rver := newVerifier(rw, nil)
		rver.anyBits = true
		re, rs, err := measure(rw, share(0), true, rver, 1, nil)
		if err != nil {
			return result{}, err
		}
		if _, err := re.close(false); err != nil {
			return result{}, err
		}
		strictSlowdown = p50 / median(rs.runS)
		ver.attempted += rver.attempted
		ver.failed += rver.failed
		if ver.firstErr == nil {
			ver.firstErr = rver.firstErr
		}
	}

	// 2. The layers, from outside.
	c, err := measureLayers(e, time.Duration(0.2*opt.seconds*float64(time.Second)), opt.quick)
	if err != nil {
		return result{}, err
	}

	// 3. The harness's rendering, tracing off and then on.
	tr := newTracer(w.name)
	var offNS, onNS, transportNS, windowsPerReal float64
	if w.mode == modeLocal {
		off, err := harnessLocalRun(e, nil)
		if err != nil {
			return result{}, err
		}
		on, err := harnessLocalRun(e, tr)
		if err != nil {
			return result{}, err
		}
		offNS, onNS = off/float64(w.l)*1e9, on/float64(w.l)*1e9
	} else {
		var runS [2][]float64 // over TCP with spans; on the in-process fleet without
		for i, tcp := range []bool{true, false} {
			spans := tr
			if !tcp {
				spans = nil
			}
			se, ss, err := measure(w, share(0.2), tcp, ver, 1, spans)
			if err != nil {
				return result{}, err
			}
			if _, err := se.close(false); err != nil {
				return result{}, err
			}
			runS[i] = ss.runS
		}
		offNS = perRealNS
		onNS = workers * median(runS[0]) / float64(w.l) * 1e9
		windowsPerReal = float64(e.fleet.windows) / float64(e.fleet.realizations)
		transportNS = (p50 - median(runS[1])) * workers / (windowsPerReal * float64(w.l)) * 1e9
	}
	tracePath, err := tr.write(opt.outDir, facts)
	if err != nil {
		return result{}, err
	}

	// 4. The budget: what the layers, priced alone from outside, add up
	// to per realization per worker, against the untraced figure.
	exchanges := windowsPerReal // Snapshot + Push per realization
	serialNS := c.finalizeS * 1e9
	switch {
	case w.mode == modeService:
		serialNS += walPerRun * (c.walAppendNS + c.manifestSaveNS)
	case w.strict:
		exchanges = 1
	default:
		passPeriod := w.passPeriod
		if passPeriod == 0 {
			passPeriod = time.Minute
		}
		exchanges = workers * (p50/passPeriod.Seconds() + 1) / float64(w.l)
	}
	layerSum := c.positionNS + c.kernelNS + c.addNS +
		exchanges*(c.snapshotNS+c.pushNS+max(transportNS, 0)) + // a negative differential is noise, not a credit

		workers*serialNS/float64(w.l)

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("rng.position_ns", c.positionNS, "ns")
	put("lcg.draw_ns", c.drawNS, "ns")
	put("workload.kernel_ns", c.kernelNS, "ns")
	put("workload.kernel_contended_ns", c.kernelContendedNS, "ns")
	put("stat.add_ns", c.addNS, "ns")
	put("stat.snapshot_ns", c.snapshotNS, "ns")
	put("collect.push_ns", c.pushNS, "ns")
	put("collect.finalize_s", c.finalizeS, "s")
	put("wire.codec_ns.b1", c.codecNS1, "ns")
	put("wire.codec_ns.b16", c.codecNS16, "ns")
	put("wire.bytes_per_window.b1", c.bytes1, "B")
	put("wire.bytes_per_window.b16", c.bytes16, "B")
	put("cluster.transport_ns_per_window", transportNS, "ns")
	put("store.wal_append_ns", c.walAppendNS, "ns")
	put("store.manifest_save_ns", c.manifestSaveNS, "ns")
	put("store.save_results_ns", c.saveResultsNS, "ns")
	put("store.checkpoint_save_ns", c.checkpointSaveNS, "ns")
	put("runmgr.recover_s", recoverS, "s")
	put("runmgr.wal_records_per_run", walPerRun, "count")
	rpcs, perBatch := 0.0, 0.0
	if e.fleet.realizations > 0 {
		rpcs = float64(e.fleet.batches) / float64(e.fleet.realizations)
	}
	if e.fleet.batchRPCs > 0 {
		perBatch = e.fleet.batchSizeSum / float64(e.fleet.batchRPCs)
	}
	put("runmgr.rpcs_per_realization", rpcs, "count")
	put("runmgr.windows_per_batch", perBatch, "count")
	put("runmgr.retries", float64(e.fleet.retries), "count")
	put("runtime.allocs_per_realization", float64(ms1.Mallocs-ms0.Mallocs)/realizations, "count")
	put("runtime.bytes_per_realization", float64(ms1.TotalAlloc-ms0.TotalAlloc)/realizations, "B")
	put("peak_rss_mib", peakRSSMiB(), "MiB")
	put("e2e.ns_per_realization", perRealNS, "ns")
	put("e2e.run_s_p95", percentile(s.runS, 0.95), "s")
	put("e2e.setup_first_s", s.setupS[0], "s")
	put("core.overhead_ns", perRealNS-c.kernelNS, "ns")
	put("workload.kernel_frac", c.kernelNS/offNS, "frac")
	put("exchange.strict_slowdown", strictSlowdown, "x")
	put("budget.layer_sum_ns", layerSum, "ns")
	put("budget.unattributed_frac", 1-layerSum/perRealNS, "frac")
	put("trace.untraced_ns", offNS, "ns")
	put("trace.traced_ns", onNS, "ns")
	put("trace.overhead_frac", onNS/offNS-1, "frac")

	res := finish(ver, m, s)
	res.notes = selfTimeReport(tr, w, perRealNS, tracePath)
	return res, nil
}

// selfTimeReport renders the traced pass's per-layer self times, per
// realization per worker, and their sum against the untraced figure.
func selfTimeReport(tr *tracer, w workloadDef, untracedNS float64, path string) string {
	self := selfTimes(tr.spans)
	var runs int64
	for _, s := range tr.spans {
		if s.Name == "run" {
			runs++
		}
	}
	// Local spans come from one thread doing all L realizations;
	// service spans are wall time of a run that two workers share.
	perReal := 1 / float64(w.l*runs)
	if w.mode == modeService {
		perReal *= workers
	}
	var b strings.Builder
	fmt.Fprintf(&b, "   traced self time per realization per worker (%d traced runs; spans in %s):\n", runs, path)
	var sum float64
	for _, name := range sortedNames(self) {
		ns := float64(self[name]) * perReal
		sum += ns
		fmt.Fprintf(&b, "     %-28s %12.1f ns\n", name, ns)
	}
	fmt.Fprintf(&b, "     %-28s %12.1f ns  (untraced end to end: %.1f ns; ratio %.2f)\n", "sum", sum, untracedNS, sum/untracedNS)
	return b.String()
}
