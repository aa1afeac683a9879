package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"parmonc/internal/obs"
	"parmonc/internal/runmgr"
	"parmonc/internal/workload"
)

// cmdServe starts the multi-run simulation service: a run manager with
// an admission queue and fair-share lease scheduler, its JSON control
// API mounted on the ops HTTP server, and a TCP fleet endpoint that
// `parmonc worker -service` processes attach to. Optionally a few
// local (in-process) fleet workers.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	httpAddr := fs.String("http", "127.0.0.1:8080", "run-control API + ops endpoints address")
	fleetAddr := fs.String("fleet", "127.0.0.1:7071", "fleet worker listen address")
	localWorkers := fs.Int("local-workers", 0, "in-process fleet workers to start")
	dir := fs.String("dir", ".", "data root (one subdirectory per run)")
	maxActive := fs.Int("max-active", 4, "concurrently active runs; more wait in the queue")
	maxQueued := fs.Int("max-queued", 16, "admission queue length; beyond it submissions are rejected")
	budget := fs.Int64("max-realizations", 100_000_000, "per-run realization budget")
	peraver := fs.Duration("peraver", 2*time.Minute, "per-run period of averaging and saving results")
	leaseTimeout := fs.Duration("lease-timeout", 30*time.Second, "reissue a lease after this long without a push (0 disables)")
	journalCap := fs.Int64("journal-max-bytes", 64<<20, "size-rotate each journal past this many bytes (0 disables)")
	pullWait := fs.Duration("pull-wait", 30*time.Second, "hold an idle fleet pull open up to this long (long-poll)")
	recoverPolicy := fs.String("recover", "strict", "corrupt-state policy at startup: strict (refuse to start) or discard (quarantine and continue)")
	fs.Parse(args)
	if err := nonNegative("-pull-wait", *pullWait); err != nil {
		return err
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	journal, err := obs.OpenJournalRotating(filepath.Join(*dir, "service.events.jsonl"), *journalCap)
	if err != nil {
		return err
	}
	defer journal.Close()

	reg := obs.NewRegistry()
	m, err := runmgr.New(runmgr.Config{
		DataRoot:        *dir,
		MaxActive:       *maxActive,
		MaxQueued:       *maxQueued,
		MaxRealizations: *budget,
		AverPeriod:      *peraver,
		LeaseTimeout:    *leaseTimeout,
		JournalMaxBytes: *journalCap,
		PullWait:        *pullWait,
		Registry:        reg,
		Journal:         journal,
		Recover:         runmgr.RecoverPolicy(*recoverPolicy),
	})
	if err != nil {
		return err
	}
	defer m.Close()

	if info := m.Recovery(); info.Terminal+info.Requeued > 0 {
		fmt.Printf("recovered service state (epoch %d): %d terminal runs listed, %d runs requeued (%d resumed with %d samples)",
			info.Epoch, info.Terminal, info.Requeued, info.Resumed, info.SamplesRestored)
		if !info.CleanShutdown {
			fmt.Printf("; previous incarnation did not shut down cleanly (%d WAL records replayed)", info.WALRecords)
		}
		fmt.Println()
	}

	ln, err := net.Listen("tcp", *fleetAddr)
	if err != nil {
		return fmt.Errorf("fleet listener: %w", err)
	}
	if err := m.ServeFleet(ln); err != nil {
		return err
	}

	api := m.Handler()
	srv, err := obs.Serve(*httpAddr, obs.ServerConfig{
		Registry: reg,
		Journal:  journal,
		Status:   func() any { return m.Status() },
		Routes: map[string]http.Handler{
			"/runs":  api,
			"/runs/": api,
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ctx, cancel := signalContext()
	defer cancel()
	if *localWorkers > 0 {
		m.StartLocalWorkers(ctx, *localWorkers, runmgr.FleetWorkerConfig{})
	}

	fmt.Printf("run service on %s (POST /runs; metrics, statusz, pprof)\n", srv.URL())
	fmt.Printf("fleet endpoint on %s (%d local workers)\n", ln.Addr(), *localWorkers)
	<-ctx.Done()
	// Graceful drain: in-flight pushes land, every active run saves a
	// final run image, the WAL records a clean
	// shutdown — the next `parmonc serve` on this data root resumes the
	// runs with nothing to replay.
	fmt.Println("shutting down: draining pushes, checkpointing active runs")
	return m.Shutdown()
}

// serviceClient is the CLI side of the control API.
type serviceClient struct {
	base string
}

func (c serviceClient) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func addServerFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://127.0.0.1:8080", "run service base URL")
}

func printRunStatus(st runmgr.RunStatus) {
	fmt.Printf("%-8s %-9s %-28s seq %-4d n %-10d leases %d/%d done, %d out, %d pending",
		st.ID, st.State, st.Fingerprint, st.SeqNum, st.N,
		st.Leases.Completed, st.Leases.Total, st.Leases.Outstanding, st.Leases.Pending)
	if st.Error != "" {
		fmt.Printf("  (%s)", st.Error)
	}
	fmt.Println()
}

// cmdSubmit sends one run to the service, optionally waiting for it.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := addServerFlag(fs)
	wf := addWorkloadFlags(fs)
	maxsv := fs.Int64("maxsv", 100000, "realization target for the run")
	seqnum := fs.Uint64("seqnum", 0, "experiments subsequence (0 = service assigns)")
	passEvery := fs.Int64("pass-every", 100, "fleet workers push after this many realizations")
	leaseSize := fs.Int64("lease-size", 0, "realizations per substream lease (0 = automatic)")
	targetRel := fs.Float64("target-rel-err", 0, "complete early below this max relative error, percent (0 disables)")
	minSamples := fs.Int64("min-samples", 0, "sample floor before -target-rel-err may fire")
	wait := fs.Bool("wait", false, "poll until the run is terminal and print its report")
	poll := fs.Duration("poll", time.Second, "polling period with -wait")
	jsonOut := fs.Bool("json", false, "emit the service's responses as JSON")
	fs.Parse(args)

	w, err := wf.resolve()
	if err != nil {
		return err
	}
	sub := runmgr.Submission{
		Scenario:     workload.Spec{Workload: w.id.Name, Params: w.values},
		MaxSamples:   *maxsv,
		SeqNum:       *seqnum,
		PassEvery:    *passEvery,
		LeaseSize:    *leaseSize,
		TargetRelErr: *targetRel,
		MinSamples:   *minSamples,
	}
	c := serviceClient{*server}
	var st runmgr.RunStatus
	if err := c.do("POST", "/runs", sub, &st); err != nil {
		return err
	}
	if !*wait {
		if *jsonOut {
			return printAsJSON(st)
		}
		printRunStatus(st)
		return nil
	}
	for !st.State.Terminal() {
		time.Sleep(*poll)
		if err := c.do("GET", "/runs/"+st.ID, nil, &st); err != nil {
			return err
		}
		if !*jsonOut {
			printRunStatus(st)
		}
	}
	if st.State != runmgr.StateDone {
		return fmt.Errorf("run %s finished %s: %s", st.ID, st.State, st.Error)
	}
	var rep runmgr.ReportPayload
	if err := c.do("GET", "/runs/"+st.ID+"/report", nil, &rep); err != nil {
		return err
	}
	if *jsonOut {
		return printAsJSON(rep)
	}
	fmt.Printf("run %s done: N = %d, max abs err %g, max rel err %g%%\n",
		rep.ID, rep.N, float64(rep.MaxAbsErr), float64(rep.MaxRelErr))
	return nil
}

// cmdStatus lists the service's runs, or one run when an ID is given.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := addServerFlag(fs)
	jsonOut := fs.Bool("json", false, "emit the service's responses as JSON")
	fs.Parse(args)
	c := serviceClient{*server}

	if id := fs.Arg(0); id != "" {
		var st runmgr.RunStatus
		if err := c.do("GET", "/runs/"+id, nil, &st); err != nil {
			return err
		}
		if *jsonOut {
			return printAsJSON(st)
		}
		printRunStatus(st)
		return nil
	}
	var listing struct {
		Runs []runmgr.RunStatus `json:"runs"`
	}
	if err := c.do("GET", "/runs", nil, &listing); err != nil {
		return err
	}
	if *jsonOut {
		return printAsJSON(listing)
	}
	if len(listing.Runs) == 0 {
		fmt.Println("no runs")
		return nil
	}
	for _, st := range listing.Runs {
		printRunStatus(st)
	}
	return nil
}

// cmdResults fetches one run's final report (or cancels the run).
func cmdResults(args []string) error {
	fs := flag.NewFlagSet("results", flag.ExitOnError)
	server := addServerFlag(fs)
	cancelRun := fs.Bool("cancel", false, "cancel the run instead of fetching its report")
	jsonOut := fs.Bool("json", false, "emit the service's responses as JSON")
	fs.Parse(args)
	id := fs.Arg(0)
	if id == "" {
		return fmt.Errorf("usage: parmonc results [-cancel] <run-id>")
	}
	c := serviceClient{*server}
	if *cancelRun {
		var st runmgr.RunStatus
		if err := c.do("DELETE", "/runs/"+id, nil, &st); err != nil {
			return err
		}
		if *jsonOut {
			return printAsJSON(st)
		}
		printRunStatus(st)
		return nil
	}
	var rep runmgr.ReportPayload
	if err := c.do("GET", "/runs/"+id+"/report", nil, &rep); err != nil {
		return err
	}
	if *jsonOut {
		return printAsJSON(rep)
	}
	fmt.Printf("run %s (%s, %s): N = %d\n", rep.ID, rep.Workload, rep.State, rep.N)
	fmt.Printf("max abs err %g, max rel err %g%%, gamma %g\n",
		float64(rep.MaxAbsErr), float64(rep.MaxRelErr), rep.Gamma)
	for i := 0; i < rep.Nrow && i < 5; i++ {
		for j := 0; j < rep.Ncol && j < 5; j++ {
			k := i*rep.Ncol + j
			fmt.Printf("  [%d,%d] mean %-14g ± %-12g (%g%%)\n",
				i, j, float64(rep.Mean[k]), float64(rep.AbsErr[k]), float64(rep.RelErr[k]))
		}
	}
	return nil
}

func printAsJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
