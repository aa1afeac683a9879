package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"parmonc/internal/obs"
	"parmonc/internal/runmgr"
)

// pollEvery is how often the HTTP client asks for a run's status while
// it waits: the control API has no blocking wait, so a client's run
// latency includes up to one period of detection delay.
const pollEvery = time.Millisecond

// service is one run manager with its control API on loopback HTTP and
// a 2-worker fleet, attached over loopback TCP or in-process.
type service struct {
	m       *runmgr.Manager
	reg     *obs.Registry
	base    string // control API URL
	client  *http.Client
	httpSrv *http.Server
	httpErr chan error

	stopWorkers context.CancelFunc
	// waitWorkers blocks until every fleet worker has exited and returns
	// what they report about themselves.
	waitWorkers func() ([]runmgr.FleetWorkerReport, error)
}

// managerConfig is the service's configuration: the CLI's defaults.
func managerConfig(root string, reg *obs.Registry) runmgr.Config {
	return runmgr.Config{DataRoot: root, AverPeriod: 2 * time.Minute, Registry: reg}
}

// startService opens (or reopens) the manager at root and attaches the
// fleet. tcp selects the real wire; false selects StartLocalWorkers,
// the same protocol without sockets or gob.
func startService(root string, tcp bool) (*service, error) {
	s := &service{reg: obs.NewRegistry(), client: &http.Client{}, httpErr: make(chan error, 1)}
	m, err := runmgr.New(managerConfig(root, s.reg))
	if err != nil {
		return nil, err
	}
	s.m = m

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	s.base = "http://" + httpLn.Addr().String()
	s.httpSrv = &http.Server{Handler: m.Handler()}
	go func() { s.httpErr <- s.httpSrv.Serve(httpLn) }()

	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	if !tcp {
		s.waitWorkers = m.StartLocalWorkers(ctx, workers, runmgr.FleetWorkerConfig{}).Wait
		return s, nil
	}
	s.waitWorkers = func() ([]runmgr.FleetWorkerReport, error) { return nil, nil } // until the workers start
	fleetLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		err = m.ServeFleet(fleetLn)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	var wg sync.WaitGroup
	reports := make([]runmgr.FleetWorkerReport, workers)
	errs := make([]error, workers)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = runmgr.RunFleetWorker(ctx, fleetLn.Addr().String(), runmgr.FleetWorkerConfig{})
			if ctx.Err() != nil {
				errs[i] = nil // stopped by us
			}
		}(i)
	}
	s.waitWorkers = func() ([]runmgr.FleetWorkerReport, error) {
		wg.Wait()
		return reports, errors.Join(errs...)
	}
	return s, nil
}

// stop shuts the service down and waits for every goroutine it
// started; it returns what the fleet workers report about themselves.
func (s *service) stop() ([]runmgr.FleetWorkerReport, error) {
	// Shutdown first: it answers the workers' parked pulls with Stop and
	// waits for those replies to leave before it closes connections, so
	// the workers exit cleanly instead of retrying a dead listener.
	err := s.m.Shutdown()
	s.stopWorkers()
	reports, werr := s.waitWorkers()
	if err == nil {
		err = werr
	}
	s.client.CloseIdleConnections()
	if cerr := s.httpSrv.Close(); err == nil {
		err = cerr
	}
	<-s.httpErr // Serve has returned
	return reports, err
}

// call does one control-API request and decodes the JSON reply.
func (s *service) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// run submits sub and follows it to its final report the way a client
// of the service does: POST /runs, poll GET /runs/{id} until terminal,
// GET /runs/{id}/report. The returned seconds run from the POST until
// the report is decoded. With a tracer, each phase is a span under one
// run span.
func (s *service) run(sub runmgr.Submission, tr *tracer) (runmgr.ReportPayload, float64, error) {
	var rep runmgr.ReportPayload
	t0 := time.Now()
	runSpan := tr.begin("run", noParent)

	sp := tr.begin("http.post_runs", runSpan)
	var st runmgr.RunStatus
	err := s.call("POST", "/runs", sub, &st)
	tr.end(sp)
	if err != nil {
		return rep, 0, err
	}

	// queued→running covers admission and the fleet's long-poll wake;
	// running→done is the simulation itself plus the final save.
	sp = tr.begin("runmgr.queued_to_running", runSpan)
	waiting := true
	for !st.State.Terminal() {
		if waiting && st.State == runmgr.StateRunning {
			tr.end(sp)
			sp = tr.begin("runmgr.running_to_done", runSpan)
			waiting = false
		}
		time.Sleep(pollEvery)
		if err := s.call("GET", "/runs/"+st.ID, nil, &st); err != nil {
			return rep, 0, err
		}
	}
	tr.end(sp)
	if st.State != runmgr.StateDone {
		return rep, 0, fmt.Errorf("run %s finished %s: %s", st.ID, st.State, st.Error)
	}

	sp = tr.begin("http.get_report", runSpan)
	err = s.call("GET", "/runs/"+st.ID+"/report", nil, &rep)
	tr.end(sp)
	tr.end(runSpan)
	return rep, time.Since(t0).Seconds(), err
}
