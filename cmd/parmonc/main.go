// Command parmonc runs a built-in Monte Carlo workload under the
// library:
//
//	parmonc run   -workload pi -maxsv 1000000 -workers 8   # single process
//	parmonc coord -workload pi -maxsv 1000000 -addr :7070  # rank 0 of a cluster
//	parmonc worker -addr host:7070 -workload pi            # additional rank
//
// or hosts many runs at once behind a JSON control API:
//
//	parmonc serve -http :8080 -fleet :7071 -local-workers 4
//	parmonc worker -service -addr host:7071                # extra fleet capacity
//	parmonc submit -workload mm1 -set lambda=0.8 -maxsv 1000000 -wait
//	parmonc status; parmonc results r0001
//
// Workloads come from the internal/workload registry and are
// parameterized on the command line:
//
//	parmonc run -workload mm1 -set lambda=0.8 -set mu=1.2
//	parmonc run -scenario spec.json       # {"workload":"mm1","params":{...}}
//
// Every simulating mode shares the -workload/-set/-scenario flags; the
// resolved parameter set is fingerprinted, recorded in parmonc_exp.dat,
// and checked by the coordinator at worker registration, so a cluster
// can never silently merge realizations of differently-parameterized
// workers. `parmonc list` (or `list -json`) prints the registry and
// every workload's parameter schema.
//
// The run mode is the Go analogue of launching the paper's MPI program
// on one node; coord + worker reproduce the multi-node deployment, with
// TCP RPC standing in for MPI (see internal/cluster). The simulation
// results land in parmonc_data/ of the working directory in the file
// layout of the original library.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/collect"
	"parmonc/internal/core"
	"parmonc/internal/obs"
	"parmonc/internal/report"
	"parmonc/internal/rng"
	"parmonc/internal/runmgr"
	"parmonc/internal/store"
	"parmonc/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "coord":
		err = cmdCoord(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "results":
		err = cmdResults(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "parmonc: unknown mode %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "parmonc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: parmonc <mode> [flags]

modes:
  run          simulate with in-process workers (goroutines)
  experiments  run several independent stochastic experiments and pool them
  coord        start the rank-0 coordinator of a distributed job
  worker       join a distributed job (or, with -service, a run service fleet)
  serve        host many runs at once behind a JSON control API
  submit       send one run to a "parmonc serve" service
  status       list a service's runs, or show one
  results      fetch (or -cancel) one service run
  list         list built-in workloads and their parameter schemas

workload selection (run, experiments, coord, worker, submit):
  -workload <name>      pick a registered workload
  -set key=value        override one schema parameter (repeatable)
  -scenario spec.json   load workload and parameters from a JSON spec
`)
}

// signalContext returns a context cancelled by SIGINT/SIGTERM — the
// "job killed by the scheduler" path; the library saves results on the
// way out.
func signalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		cancel()
	}()
	return ctx, cancel
}

// jsonWorkload is one registry entry of `parmonc list -json`: the
// machine-readable schema a driving program needs to construct -set
// flags or scenario specs without parsing help text.
type jsonWorkload struct {
	Name          string           `json:"name"`
	Description   string           `json:"description"`
	SchemaVersion int              `json:"schema_version"`
	Nrow          int              `json:"nrow"`
	Ncol          int              `json:"ncol"`
	Fingerprint   string           `json:"fingerprint"`
	Params        []workload.Param `json:"params,omitempty"`
	RowLabels     []string         `json:"row_labels,omitempty"`
	ColLabels     []string         `json:"col_labels,omitempty"`
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the registry as JSON on stdout")
	fs.Parse(args)

	defs := workload.All()
	if *jsonOut {
		out := make([]jsonWorkload, 0, len(defs))
		for _, d := range defs {
			id, err := d.Identity(nil) // defaults
			if err != nil {
				return err
			}
			jw := jsonWorkload{
				Name:          d.Name,
				Description:   d.Description,
				SchemaVersion: d.Schema.Version,
				Nrow:          id.Nrow,
				Ncol:          id.Ncol,
				Fingerprint:   id.Fingerprint(),
				Params:        d.Schema.Params,
			}
			v := workload.Values(id.Params)
			if d.RowLabels != nil {
				jw.RowLabels = d.RowLabels(v)
			}
			if d.ColLabels != nil {
				jw.ColLabels = d.ColLabels(v)
			}
			out = append(out, jw)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for _, d := range defs {
		nrow, ncol := d.Dims(d.Schema.Defaults())
		fmt.Printf("%-12s %3d×%-2d  %s\n", d.Name, nrow, ncol, d.Description)
		for _, p := range d.Schema.Params {
			fmt.Printf("             -set %-18s %s\n", workload.FormatSet(p.Name, p.Default), p.Description)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	maxsv := fs.Int64("maxsv", 100000, "maximal sample volume (0 = run until interrupted)")
	workers := fs.Int("workers", 0, "parallel workers M (0 = GOMAXPROCS)")
	seqnum := fs.Uint64("seqnum", 0, "experiments subsequence number")
	res := fs.Bool("res", false, "resume the previous simulation in this directory")
	dir := fs.String("dir", ".", "working directory")
	perpass := fs.Duration("perpass", time.Minute, "period of passing subtotals to the collector")
	peraver := fs.Duration("peraver", 2*time.Minute, "period of averaging and saving results")
	strict := fs.Bool("strict", false, "exchange after every realization (Fig. 2 conditions)")
	snapshots := fs.Bool("worker-snapshots", true, "write per-worker snapshots for manaver")
	jsonOut := fs.Bool("json", false, "emit the result as JSON on stdout")
	stats := fs.Bool("stats", false, "print collector engine statistics (pushes, merges, saves, ...)")
	httpAddr := fs.String("http", "", "serve /metrics, /healthz, /statusz and /debug/pprof on this address")
	journal := fs.Bool("journal", true, "append the run-event journal to parmonc_data/events.jsonl")
	fs.Parse(args)

	w, err := wf.resolve()
	if err != nil {
		return err
	}
	nrow, ncol := w.dims()
	ctx, cancel := signalContext()
	defer cancel()

	cfg := core.Config{
		Nrow:                nrow,
		Ncol:                ncol,
		MaxSamples:          *maxsv,
		Resume:              *res,
		SeqNum:              *seqnum,
		Workers:             *workers,
		PassPeriod:          *perpass,
		AverPeriod:          *peraver,
		StrictExchange:      *strict,
		WorkDir:             *dir,
		SaveWorkerSnapshots: *snapshots,
		Workload:            w.id.Name,
		Fingerprint:         w.id.Fingerprint(),
		Scenario:            w.scenario,
	}

	if *journal {
		j, err := openJournal(*dir)
		if err != nil {
			return err
		}
		defer j.Close()
		cfg.Journal = j
	}
	var latest atomic.Pointer[core.Progress]
	if *httpAddr != "" {
		cfg.Registry = obs.NewRegistry()
		cfg.OnSave = func(p core.Progress) { latest.Store(&p) }
		srv, err := obs.Serve(*httpAddr, obs.ServerConfig{
			Registry: cfg.Registry,
			Journal:  cfg.Journal,
			Status: func() any {
				return map[string]any{
					"mode":     "run",
					"workload": w.id.Fingerprint(),
					"progress": latest.Load(),
				}
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		if !*jsonOut {
			fmt.Printf("ops server on %s (metrics, healthz, statusz, pprof)\n", srv.URL())
		}
	}

	result, err := core.RunFactory(ctx, cfg, w.factory)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(result, w, *stats)
	}
	printSummary(result, *dir)
	if *stats {
		printStats(result.Metrics)
	}
	return nil
}

// openJournal creates the parmonc_data layout under dir (if needed)
// and opens the run-event journal for appending.
func openJournal(dir string) (*obs.Journal, error) {
	d, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return obs.OpenJournal(d.JournalPath())
}

func printStats(m collect.MetricsSnapshot) {
	fmt.Println("\ncollector statistics:")
	m.WriteTo(os.Stdout)
}

// jsonResult is the machine-readable run summary of the -json flag.
type jsonResult struct {
	Workload    string    `json:"workload,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Scenario    string    `json:"scenario,omitempty"`
	N           int64     `json:"total_sample_volume"`
	NewSamples  int64     `json:"new_samples"`
	Nrow        int       `json:"rows"`
	Ncol        int       `json:"cols"`
	Mean        []float64 `json:"mean"`
	AbsErr      []float64 `json:"abs_err"`
	RelErr      []float64 `json:"rel_err_pct"`
	Var         []float64 `json:"variance"`
	MaxAbsErr   float64   `json:"max_abs_err"`
	MaxRelErr   float64   `json:"max_rel_err_pct"`
	ElapsedSec  float64   `json:"elapsed_seconds"`
	Interrupted bool      `json:"interrupted"`

	Stats *jsonStats `json:"collector_stats,omitempty"`
}

// jsonStats mirrors collect.MetricsSnapshot for the -json -stats output.
type jsonStats struct {
	Pushes            int64   `json:"pushes"`
	Merges            int64   `json:"merges"`
	RejectedSnapshots int64   `json:"rejected_snapshots"`
	PushesInvalid     int64   `json:"pushes_invalid"`
	Saves             int64   `json:"saves"`
	SaveLatencySec    float64 `json:"save_latency_seconds"`
	WorkerSnapshots   int64   `json:"worker_snapshots"`
	RegisteredWorkers int64   `json:"registered_workers"`
	PrunedWorkers     int64   `json:"pruned_workers"`
	ResumedSamples    int64   `json:"resumed_samples"`
}

func printJSON(result core.Result, w runWorkload, stats bool) error {
	rep := result.Report
	out := jsonResult{
		Workload:    w.id.Name,
		Fingerprint: w.id.Fingerprint(),
		Scenario:    w.scenario,
		N:           rep.N,
		NewSamples:  result.NewSamples,
		Nrow:        rep.Nrow,
		Ncol:        rep.Ncol,
		Mean:        rep.Mean,
		AbsErr:      rep.AbsErr,
		RelErr:      rep.RelErr,
		Var:         rep.Var,
		MaxAbsErr:   rep.MaxAbsErr,
		MaxRelErr:   rep.MaxRelErr,
		ElapsedSec:  result.Elapsed.Seconds(),
		Interrupted: result.Interrupted,
	}
	if stats {
		m := result.Metrics
		out.Stats = &jsonStats{
			Pushes:            m.Pushes,
			Merges:            m.Merges,
			RejectedSnapshots: m.RejectedSnapshots,
			PushesInvalid:     m.PushesInvalid,
			Saves:             m.Saves,
			SaveLatencySec:    m.SaveLatency.Seconds(),
			WorkerSnapshots:   m.WorkerSnapshots,
			RegisteredWorkers: m.RegisteredWorkers,
			PrunedWorkers:     m.PrunedWorkers,
			ResumedSamples:    m.ResumedSamples,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func printSummary(result core.Result, dir string) {
	status := "completed"
	if result.Interrupted {
		status = "interrupted (results saved)"
	}
	fmt.Printf("simulation %s in %s (%d new samples)\n",
		status, result.Elapsed.Round(time.Millisecond), result.NewSamples)
	report.Summary(os.Stdout, result.Report)
	fmt.Printf("%-28s %s/parmonc_data/results\n", "results in", dir)
	report.Table(os.Stdout, result.Report, 5)
}

func cmdCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	maxsv := fs.Int64("maxsv", 100000, "total sample volume target (0 = until interrupted)")
	seqnum := fs.Uint64("seqnum", 0, "experiments subsequence number")
	res := fs.Bool("res", false, "resume the previous simulation")
	dir := fs.String("dir", ".", "working directory")
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	peraver := fs.Duration("peraver", 2*time.Minute, "period of saving results")
	passEvery := fs.Int64("pass-every", 100, "worker pushes after this many realizations")
	leaseSize := fs.Int64("lease-size", 0, "realizations per substream lease (0 = automatic)")
	heartbeat := fs.Duration("heartbeat", 10*time.Second, "worker liveness interval (0 disables supervision)")
	missBudget := fs.Int("miss-budget", 3, "heartbeat intervals a worker may miss before its leases are reissued")
	drain := fs.Duration("drain-timeout", 2*time.Second, "grace for in-flight worker RPCs on shutdown")
	snapshots := fs.Bool("worker-snapshots", true, "write per-worker snapshots for manaver")
	stats := fs.Bool("stats", false, "print collector engine statistics after the job finishes")
	httpAddr := fs.String("http", "", "serve /metrics, /healthz, /statusz and /debug/pprof on this address")
	journal := fs.Bool("journal", true, "append the run-event journal to parmonc_data/events.jsonl")
	fs.Parse(args)

	w, err := wf.resolve()
	if err != nil {
		return err
	}
	nrow, ncol := w.dims()
	params, err := rng.LoadParams(*dir)
	if err != nil {
		return err
	}
	spec := cluster.JobSpec{
		SeqNum:     *seqnum,
		Nrow:       nrow,
		Ncol:       ncol,
		MaxSamples: *maxsv,
		Params:     params,
		Gamma:      3,
		PassEvery:  *passEvery,
		Workload:   w.id,
		LeaseSize:  *leaseSize,
		Heartbeat:  *heartbeat,
	}
	ccfg := cluster.CoordinatorConfig{
		WorkDir:             *dir,
		AverPeriod:          *peraver,
		Resume:              *res,
		MissBudget:          *missBudget,
		SaveWorkerSnapshots: *snapshots,
		DrainTimeout:        *drain,
	}
	if *journal {
		j, err := openJournal(*dir)
		if err != nil {
			return err
		}
		defer j.Close()
		ccfg.Journal = j
	}
	if *httpAddr != "" {
		ccfg.Registry = obs.NewRegistry()
	}
	coord, err := cluster.NewCoordinator(spec, ccfg, *addr)
	if err != nil {
		return err
	}
	defer coord.Close()
	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, obs.ServerConfig{
			Registry: ccfg.Registry,
			Journal:  ccfg.Journal,
			Status:   func() any { return coord.Status() },
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("ops server on %s (metrics, healthz, statusz, pprof)\n", srv.URL())
	}
	fmt.Printf("coordinator listening on %s (workload %s, target %d)\n", coord.Addr(), w.id.Fingerprint(), *maxsv)

	ctx, cancel := signalContext()
	defer cancel()
	rep, err := coord.Wait(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("job finished: N = %d, max abs err %g, max rel err %g%%\n",
		rep.N, rep.MaxAbsErr, rep.MaxRelErr)
	if *stats {
		printStats(coord.Status().Metrics)
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	maxsv := fs.Int64("maxsv", 100000, "maximal sample volume per experiment")
	count := fs.Int("count", 3, "number of independent experiments")
	first := fs.Uint64("first-seqnum", 0, "subsequence number of the first experiment")
	workers := fs.Int("workers", 0, "parallel workers per experiment (0 = GOMAXPROCS)")
	dir := fs.String("dir", ".", "working directory (one subdirectory per experiment)")
	perpass := fs.Duration("perpass", time.Minute, "period of passing subtotals")
	peraver := fs.Duration("peraver", 2*time.Minute, "period of saving results")
	fs.Parse(args)

	if *count < 1 {
		return fmt.Errorf("count %d must be >= 1", *count)
	}
	w, err := wf.resolve()
	if err != nil {
		return err
	}
	nrow, ncol := w.dims()
	seqnums := make([]uint64, *count)
	for i := range seqnums {
		seqnums[i] = *first + uint64(i)
	}
	ctx, cancel := signalContext()
	defer cancel()

	cfg := core.Config{
		Nrow:        nrow,
		Ncol:        ncol,
		MaxSamples:  *maxsv,
		Workers:     *workers,
		PassPeriod:  *perpass,
		AverPeriod:  *peraver,
		WorkDir:     *dir,
		Workload:    w.id.Name,
		Fingerprint: w.id.Fingerprint(),
		Scenario:    w.scenario,
	}
	res, err := core.RunExperiments(ctx, cfg, seqnums, w.factory)
	if err != nil {
		return err
	}
	fmt.Printf("%d independent experiments of workload %s, %d samples each\n", *count, w.id.Fingerprint(), *maxsv)
	report.Compare(os.Stdout, res.Reports, res.Combined, 0, 0)
	fmt.Println("\npooled report:")
	report.Summary(os.Stdout, res.Combined)
	return nil
}

// nonNegative rejects a negative duration flag by name.
func nonNegative(flagName string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("%s %v must not be negative", flagName, d)
	}
	return nil
}

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator (or, with -service, fleet) address")
	service := fs.Bool("service", false, "join a \"parmonc serve\" fleet instead of a single-job coordinator")
	defaults := cluster.DefaultRetryPolicy()
	attempts := fs.Int("retry-attempts", defaults.MaxAttempts, "RPC attempts before the worker gives up")
	base := fs.Duration("retry-base", defaults.BaseDelay, "first retry backoff delay")
	max := fs.Duration("retry-max", defaults.MaxDelay, "backoff delay cap")
	callTimeout := fs.Duration("call-timeout", defaults.CallTimeout, "per-RPC timeout before reconnecting")
	dialTimeout := fs.Duration("dial-timeout", defaults.DialTimeout, "per-dial timeout")
	httpAddr := fs.String("http", "", "serve /metrics, /healthz, /statusz and /debug/pprof on this address")
	journalPath := fs.String("journal", "", "append worker run events to this JSONL file")
	pullWait := fs.Duration("pull-wait", 10*time.Second, "with -service: ask the coordinator to hold idle pulls open this long (long-poll)")
	pushInterval := fs.Duration("push-interval", 50*time.Millisecond, "with -service: coalesce completed push windows into one batch per interval")
	maxBatch := fs.Int("max-batch", 64, "with -service: most push windows one batch may carry")
	fs.Parse(args)
	if err := nonNegative("-pull-wait", *pullWait); err != nil {
		return err
	}
	if err := nonNegative("-push-interval", *pushInterval); err != nil {
		return err
	}

	ctx, cancel := signalContext()
	defer cancel()
	retry := cluster.RetryPolicy{
		MaxAttempts: *attempts,
		BaseDelay:   *base,
		MaxDelay:    *max,
		CallTimeout: *callTimeout,
		DialTimeout: *dialTimeout,
	}
	if *service {
		// Fleet workers take their workloads from the tasks they pull,
		// so the -workload/-set/-scenario flags do not apply here.
		fmt.Printf("fleet worker joining %s\n", *addr)
		rep, err := runmgr.RunFleetWorker(ctx, *addr, runmgr.FleetWorkerConfig{
			Retry:         retry,
			PullWait:      *pullWait,
			FlushInterval: *pushInterval,
			MaxBatch:      *maxBatch,
		})
		if err != nil {
			return err
		}
		fmt.Printf("fleet worker %d done: %d realizations, %d pushes in %d batches (%d retries, %d reconnects)\n",
			rep.Worker, rep.Realizations, rep.Pushes, rep.Batches, rep.Retries, rep.Reconnects)
		return nil
	}
	w, err := wf.resolve()
	if err != nil {
		return err
	}
	wcfg := cluster.WorkerConfig{
		Workload: w.id,
		Retry:    retry,
	}
	if *journalPath != "" {
		j, err := obs.OpenJournal(*journalPath)
		if err != nil {
			return err
		}
		defer j.Close()
		wcfg.Journal = j
	}
	if *httpAddr != "" {
		wcfg.Registry = obs.NewRegistry()
		srv, err := obs.Serve(*httpAddr, obs.ServerConfig{
			Registry: wcfg.Registry,
			Journal:  wcfg.Journal,
			Status: func() any {
				return map[string]any{
					"mode":        "worker",
					"coordinator": *addr,
					"metrics":     wcfg.Registry.Snapshot(),
				}
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("ops server on %s (metrics, healthz, statusz, pprof)\n", srv.URL())
	}
	fmt.Printf("worker joining %s (workload %s)\n", *addr, w.id.Fingerprint())
	rep, err := cluster.RunWorker(ctx, *addr, wcfg, w.factory)
	if err != nil {
		return err
	}
	fmt.Printf("worker %d done: %d realizations, %d pushes (%d retries, %d reconnects)\n",
		rep.Worker, rep.Realizations, rep.Pushes, rep.Retries, rep.Reconnects)
	return nil
}
