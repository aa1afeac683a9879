package cluster

// End-to-end observability conformance: during a live 4-worker TCP run
// the coordinator's ops server must expose valid Prometheus text with
// the collector series, /statusz must report mid-run progress as JSON,
// the worker-side registry must expose retry/reconnect/batch-duration
// series, and /debug/pprof must yield a parseable CPU profile — all
// while the run is in flight, not after it.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"parmonc/internal/core"
	"parmonc/internal/obs"
	"parmonc/internal/rng"
)

// obsGet fetches a URL and returns the body, failing the test on any
// transport or non-200 outcome.
func obsGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts the value of an exposition line whose name (and
// optional label block) starts with prefix, e.g. "parmonc_collector_saves_total".
func metricValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q: %v", prefix, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", prefix)
	return 0
}

func TestObsEndToEndLiveRun(t *testing.T) {
	const (
		workers = 4
		quota   = 300 // realizations per lease (one lease per worker when all live)
		pass    = 20  // PassEvery → frequent merges to observe mid-run
	)
	spec := JobSpec{
		Nrow: 2, Ncol: 2,
		MaxSamples: workers * quota,
		Params:     rng.DefaultParams(),
		Gamma:      3,
		PassEvery:  pass,
		LeaseSize:  quota,
	}
	// Each realization sleeps so the run stays alive long enough to be
	// observed from outside (~quota ms per worker).
	slowFactory := func(w int) (core.Realization, error) {
		return func(_ *rng.Stream, out []float64) error {
			time.Sleep(time.Millisecond)
			for i := range out {
				out[i] = float64(w % 7)
			}
			return nil
		}, nil
	}

	dir := t.TempDir()
	journal, err := obs.OpenJournal(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(spec, CoordinatorConfig{
		WorkDir:    dir,
		AverPeriod: time.Hour, // only the final save
		Registry:   reg,
		Journal:    journal,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv, err := obs.Serve("127.0.0.1:0", obs.ServerConfig{
		Registry: reg,
		Journal:  journal,
		Status:   func() any { return coord.Status() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	wreg := obs.NewRegistry() // shared by all workers; series are labeled
	wsrv, err := obs.Serve("127.0.0.1:0", obs.ServerConfig{Registry: wreg})
	if err != nil {
		t.Fatal(err)
	}
	defer wsrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errCh := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			_, err := RunWorker(ctx, coord.Addr(), WorkerConfig{Registry: wreg}, slowFactory)
			errCh <- err
		}()
	}

	// Poll /statusz until the run is visibly in flight: some samples
	// merged, target not yet reached.
	var st struct {
		Status struct {
			N             int64 `json:"n"`
			ActiveWorkers int   `json:"active_workers"`
			TargetReached bool  `json:"target_reached"`
		} `json:"status"`
		Journal struct {
			Written int64 `json:"written"`
			Dropped int64 `json:"dropped"`
		} `json:"journal"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		body := obsGet(t, base+"/statusz")
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("statusz is not JSON: %v\n%s", err, body)
		}
		if st.Status.N > 0 && st.Status.N < spec.MaxSamples {
			break
		}
		if time.Now().After(deadline) || st.Status.TargetReached {
			t.Fatalf("never observed the run mid-flight: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Status.ActiveWorkers <= 0 {
		t.Errorf("statusz mid-run: active_workers = %d, want > 0", st.Status.ActiveWorkers)
	}

	// Coordinator exposition mid-run: collector series present and the
	// merge counter already moving.
	mid := obsGet(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE parmonc_collector_pushes_total counter",
		"# TYPE parmonc_collector_merges_total counter",
		"# TYPE parmonc_collector_redeliveries_total counter",
		"# TYPE parmonc_collector_save_seconds histogram",
		"parmonc_collector_save_seconds_bucket{le=",
		"parmonc_coordinator_active_workers",
		"parmonc_coordinator_samples_total",
	} {
		if !strings.Contains(mid, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}
	if v := metricValue(t, mid, "parmonc_collector_merges_total"); v < 1 {
		t.Errorf("mid-run merges_total = %v, want >= 1", v)
	}

	// Worker exposition mid-run: resilience and batch-duration series,
	// labeled by processor index.
	wm := obsGet(t, "http://"+wsrv.Addr()+"/metrics")
	for _, want := range []string{
		`parmonc_worker_retries{worker="`,
		`parmonc_worker_reconnects{worker="`,
		`parmonc_worker_realizations_total{worker="`,
		`parmonc_worker_push_seconds_bucket{worker="`,
		`parmonc_worker_realization_seconds_bucket{worker="`,
	} {
		if !strings.Contains(wm, want) {
			t.Errorf("worker /metrics missing %q", want)
		}
	}

	// A live CPU profile must come back as a gzipped pprof payload.
	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatalf("pprof profile: %v", err)
	}
	prof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("pprof profile: reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile: status %d: %s", resp.StatusCode, prof)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("pprof profile is not gzip-framed (got % x...)", prof[:min(len(prof), 4)])
	}

	if body := obsGet(t, base+"/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("healthz = %q, want ok", body)
	}

	rep, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if rep.N != spec.MaxSamples {
		t.Fatalf("final N = %d, want %d", rep.N, spec.MaxSamples)
	}

	// After the final save the latency histogram must have fired.
	final := obsGet(t, base+"/metrics")
	if v := metricValue(t, final, "parmonc_collector_save_seconds_count"); v < 1 {
		t.Errorf("save_seconds_count = %v after finalize, want >= 1", v)
	}
	if v := metricValue(t, final, "parmonc_collector_pushes_total"); v < workers*quota/pass {
		t.Errorf("pushes_total = %v, want >= %d", v, workers*quota/pass)
	}

	// The journal must hold the run's event stream with per-worker
	// attribution and no drops.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if journal.Dropped() != 0 {
		t.Errorf("journal dropped %d events", journal.Dropped())
	}
	events, err := obs.ReadJournal(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	sawWorker := false
	for _, e := range events {
		kinds[e.Kind]++
		if e.Worker > 0 {
			sawWorker = true
		}
	}
	for _, want := range []string{"register", "lease_grant", "lease_complete", "save", "deregister"} {
		if kinds[want] == 0 {
			t.Errorf("journal has no %q events (kinds: %v)", want, kinds)
		}
	}
	// Per-window traffic is counted (pushes_total above), not journaled.
	for _, absent := range []string{"push", "merge"} {
		if kinds[absent] != 0 {
			t.Errorf("journal has %d %q lines, want none (kinds: %v)", kinds[absent], absent, kinds)
		}
	}
	if !sawWorker {
		t.Error("journal events carry no worker attribution")
	}
}

// TestObsStatuszJSONShape pins the field names the CLI and dashboards
// consume from a coordinator /statusz document.
func TestObsStatuszJSONShape(t *testing.T) {
	coord, err := NewCoordinator(testSpec(10), CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv, err := obs.Serve("127.0.0.1:0", obs.ServerConfig{
		Registry: obs.NewRegistry(),
		Status:   func() any { return coord.Status() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := obsGet(t, fmt.Sprintf("http://%s/statusz", srv.Addr()))
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	status, ok := doc["status"].(map[string]any)
	if !ok {
		t.Fatalf("statusz has no status object: %s", body)
	}
	for _, key := range []string{"n", "active_workers", "stopped", "target_reached", "metrics"} {
		if _, ok := status[key]; !ok {
			t.Errorf("statusz status object missing %q: %s", key, body)
		}
	}
	metrics, ok := status["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("statusz metrics is not an object: %s", body)
	}
	for _, key := range []string{"pushes", "merges", "redeliveries", "saves"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("statusz metrics missing %q", key)
		}
	}
}
