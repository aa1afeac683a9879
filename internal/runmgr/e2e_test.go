package runmgr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"parmonc/internal/cluster"
	"parmonc/internal/obs"
	"parmonc/internal/workload"
	_ "parmonc/internal/workload/builtin"
)

// httpJSON drives the control API the way an operator's tooling would.
func httpJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// TestE2EServeRuns is the acceptance scenario: a run manager serving
// its control API on the ops HTTP server, a shared 4-worker TCP fleet,
// three concurrent runs of different workloads driven to completion
// through the API, each final report bit-identical to its isolated
// counterpart — plus a large fourth run canceled mid-flight, whose
// lease capacity must flow back to the survivors.
func TestE2EServeRuns(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(t)
	cfg.LeaseTimeout = 5 * time.Second
	cfg.Registry = reg
	m := newManager(t, cfg)

	// Control plane on the ops server, alongside /metrics and /statusz.
	srv, err := obs.Serve("127.0.0.1:0", obs.ServerConfig{
		Registry: reg,
		Status:   func() any { return m.Status() },
		Routes: map[string]http.Handler{
			"/runs":  m.Handler(),
			"/runs/": m.Handler(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	// Data plane: a 4-worker fleet over TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ServeFleet(ln); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := RunFleetWorker(ctx, ln.Addr().String(), FleetWorkerConfig{
				Retry: cluster.RetryPolicy{BaseDelay: 5 * time.Millisecond, CallTimeout: 10 * time.Second},
			})
			workerDone <- err
		}()
	}

	// The big cancelable run goes first so it is holding capacity when
	// the real runs arrive; huge windows and a sparse push cadence mean
	// it will be mid-window when canceled.
	big := Submission{
		Scenario:   workload.Spec{Workload: "pi"},
		MaxSamples: 8_000_000,
		SeqNum:     30,
		PassEvery:  50_000,
		LeaseSize:  2_000_000,
	}
	var bigSt RunStatus
	if code, raw := httpJSON(t, "POST", base+"/runs", big, &bigSt); code != http.StatusAccepted {
		t.Fatalf("POST big run: %d %s", code, raw)
	}

	subs := []Submission{
		{Scenario: workload.Spec{Workload: "pi"}, MaxSamples: 20_000, SeqNum: 31, PassEvery: 100, LeaseSize: 1_500},
		{Scenario: workload.Spec{Workload: "mm1", Params: workload.Values{"lambda": 0.5}}, MaxSamples: 6_000, SeqNum: 32, PassEvery: 50, LeaseSize: 1_000},
		{Scenario: workload.Spec{Workload: "option"}, MaxSamples: 10_000, SeqNum: 33, PassEvery: 100, LeaseSize: 900},
	}
	ids := make([]string, len(subs))
	for i, sub := range subs {
		var st RunStatus
		if code, raw := httpJSON(t, "POST", base+"/runs", sub, &st); code != http.StatusAccepted {
			t.Fatalf("POST run %d: %d %s", i, code, raw)
		}
		if st.State != StateAdmitted && st.State != StateRunning {
			t.Fatalf("run %s submitted into state %s", st.ID, st.State)
		}
		ids[i] = st.ID
	}

	// All four runs visible in the listing.
	var listing struct {
		Runs []RunStatus `json:"runs"`
	}
	if code, raw := httpJSON(t, "GET", base+"/runs", nil, &listing); code != http.StatusOK || len(listing.Runs) != 4 {
		t.Fatalf("GET /runs: %d, %d runs (%s)", code, len(listing.Runs), raw)
	}

	// Give the fleet a moment to spread across the runs, then cancel
	// the big one over the API.
	waitHTTPState := func(id string, want State, timeout time.Duration) RunStatus {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			var st RunStatus
			if code, raw := httpJSON(t, "GET", base+"/runs/"+id, nil, &st); code != http.StatusOK {
				t.Fatalf("GET /runs/%s: %d %s", id, code, raw)
			}
			if st.State == want {
				return st
			}
			if st.State.Terminal() {
				t.Fatalf("run %s reached %s (%s), want %s", id, st.State, st.Error, want)
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck in %s, want %s", id, st.State, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	bigRunning := waitHTTPState(bigSt.ID, StateRunning, 30*time.Second)
	if bigRunning.Leases.Outstanding == 0 {
		t.Fatalf("big run running with no outstanding leases: %+v", bigRunning.Leases)
	}
	var canceled RunStatus
	if code, raw := httpJSON(t, "DELETE", base+"/runs/"+bigSt.ID, nil, &canceled); code != http.StatusOK {
		t.Fatalf("DELETE big run: %d %s", code, raw)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("canceled run state = %s", canceled.State)
	}
	// The canceled run must hold no fleet capacity: every grant fenced,
	// nothing pending.
	if canceled.Leases.Outstanding != 0 || canceled.Leases.Pending != 0 {
		t.Fatalf("canceled run still holds capacity: %+v", canceled.Leases)
	}
	// Canceling again is a conflict, not a success.
	if code, _ := httpJSON(t, "DELETE", base+"/runs/"+bigSt.ID, nil, nil); code != http.StatusConflict {
		t.Fatalf("second DELETE: %d, want 409", code)
	}

	// The survivors absorb the freed capacity and run to completion.
	for _, id := range ids {
		st := waitHTTPState(id, StateDone, 180*time.Second)
		if st.Leases.Completed != int64(st.Leases.Total) {
			t.Fatalf("run %s done with %d/%d leases completed", id, st.Leases.Completed, st.Leases.Total)
		}
	}

	// Reports over the API, bit-identical to isolated execution.
	for i, id := range ids {
		var got ReportPayload
		if code, raw := httpJSON(t, "GET", base+"/runs/"+id+"/report", nil, &got); code != http.StatusOK {
			t.Fatalf("GET report %s: %d %s", id, code, raw)
		}
		want := runIsolated(t, subs[i])
		compareReports(t, fmt.Sprintf("e2e/%s", subs[i].Scenario.Workload), got, want)
	}

	// The canceled run still serves its partial report — cancellation
	// saves what was accumulated, like an interrupted single run.
	var partial ReportPayload
	if code, raw := httpJSON(t, "GET", base+"/runs/"+bigSt.ID+"/report", nil, &partial); code != http.StatusOK {
		t.Fatalf("report of canceled run: %d %s", code, raw)
	}
	if partial.State != StateCanceled || partial.N >= big.MaxSamples {
		t.Fatalf("canceled report: state %s, N %d", partial.State, partial.N)
	}
	// Unknown run is a 404.
	if code, _ := httpJSON(t, "GET", base+"/runs/r9999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown run: %d, want 404", code)
	}

	// The shared registry carries the per-run labeled series.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"parmonc_runs_active", "parmonc_run_samples", `run="` + ids[0] + `"`} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}

	cancel()
	for i := 0; i < 4; i++ {
		if err := <-workerDone; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
}
