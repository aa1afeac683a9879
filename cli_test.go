package parmonc_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildCLI compiles a command into a temp dir once per test binary.
var cliCache = map[string]string{}

func buildCLI(t *testing.T, pkg string) string {
	t.Helper()
	if p, ok := cliCache[pkg]; ok {
		return p
	}
	dir, err := os.MkdirTemp("", "parmonc-cli")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	cliCache[pkg] = bin
	return bin
}

func runCLI(t *testing.T, dir string, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIRunJSON(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()
	out, err := runCLI(t, dir, bin, "run", "-workload", "pi", "-maxsv", "50000",
		"-perpass", "5ms", "-peraver", "10ms", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var res struct {
		N      int64     `json:"total_sample_volume"`
		Mean   []float64 `json:"mean"`
		AbsErr []float64 `json:"abs_err"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if res.N != 50000 {
		t.Fatalf("N = %d", res.N)
	}
	if math.Abs(res.Mean[0]-math.Pi/4) > res.AbsErr[0]*4/3 {
		t.Fatalf("mean %g outside bound of π/4", res.Mean[0])
	}
	// Files written into the working directory.
	if _, err := os.Stat(filepath.Join(dir, "parmonc_data", "results", "func.dat")); err != nil {
		t.Fatal("func.dat missing")
	}
}

func TestCLIRunStats(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()
	out, err := runCLI(t, dir, bin, "run", "-workload", "pi", "-maxsv", "20000",
		"-perpass", "5ms", "-peraver", "10ms", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "collector statistics:") {
		t.Fatalf("no statistics block in output:\n%s", out)
	}
	// The counters must be observable and non-zero for a completed run.
	for _, key := range []string{"pushes", "merges", "saves"} {
		m := regexp.MustCompile(`(?m)^` + key + `\s+(\d+)$`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("counter %q missing from stats output:\n%s", key, out)
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 {
			t.Fatalf("counter %q is zero:\n%s", key, out)
		}
	}
	if !strings.Contains(out, "rejected_snapshots       0") {
		t.Fatalf("expected zero rejected snapshots:\n%s", out)
	}

	// The same counters ride along in the JSON output.
	out, err = runCLI(t, dir, bin, "run", "-workload", "pi", "-maxsv", "20000",
		"-perpass", "5ms", "-peraver", "10ms", "-seqnum", "1", "-json", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var res struct {
		Stats *struct {
			Pushes int64 `json:"pushes"`
			Merges int64 `json:"merges"`
			Saves  int64 `json:"saves"`
		} `json:"collector_stats"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if res.Stats == nil || res.Stats.Pushes == 0 || res.Stats.Merges == 0 || res.Stats.Saves == 0 {
		t.Fatalf("collector_stats missing or zero: %+v\n%s", res.Stats, out)
	}
}

func TestCLIRunResumeManaverFlow(t *testing.T) {
	parmoncBin := buildCLI(t, "cmd/parmonc")
	manaverBin := buildCLI(t, "cmd/manaver")
	dir := t.TempDir()

	if out, err := runCLI(t, dir, parmoncBin, "run", "-workload", "pi", "-maxsv", "20000",
		"-perpass", "5ms", "-peraver", "10ms"); err != nil {
		t.Fatalf("first run: %v\n%s", err, out)
	}
	if out, err := runCLI(t, dir, parmoncBin, "run", "-workload", "pi", "-maxsv", "20000",
		"-res", "-seqnum", "1", "-perpass", "5ms", "-peraver", "10ms"); err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	out, err := runCLI(t, dir, manaverBin)
	if err != nil {
		t.Fatalf("manaver: %v\n%s", err, out)
	}
	if !strings.Contains(out, "total sample volume") || !strings.Contains(out, "40000") {
		t.Fatalf("manaver output:\n%s", out)
	}
}

func TestCLIResumeSameSeqnumFails(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()
	if out, err := runCLI(t, dir, bin, "run", "-workload", "pi", "-maxsv", "1000",
		"-perpass", "5ms", "-peraver", "10ms"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	out, err := runCLI(t, dir, bin, "run", "-workload", "pi", "-maxsv", "1000",
		"-res", "-perpass", "5ms", "-peraver", "10ms")
	if err == nil {
		t.Fatalf("same-seqnum resume accepted:\n%s", out)
	}
	if !strings.Contains(out, "different experiments subsequence") {
		t.Fatalf("unexpected error output:\n%s", out)
	}
}

func TestCLIGenparamRoundTrip(t *testing.T) {
	genparamBin := buildCLI(t, "cmd/genparam")
	parmoncBin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()
	if out, err := runCLI(t, dir, genparamBin, "100", "80", "40"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "parmonc_genparam.dat")); err != nil {
		t.Fatal("genparam file missing")
	}
	// The run picks the custom exponents up (visible in func_log.dat).
	if out, err := runCLI(t, dir, parmoncBin, "run", "-workload", "pi", "-maxsv", "1000",
		"-perpass", "5ms", "-peraver", "10ms"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	logRaw, err := os.ReadFile(filepath.Join(dir, "parmonc_data", "results", "func_log.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logRaw), "ne=100 np=80 nr=40") {
		t.Fatalf("custom leaps not used:\n%s", logRaw)
	}
}

func TestCLIGenparamRejectsBadArgs(t *testing.T) {
	bin := buildCLI(t, "cmd/genparam")
	dir := t.TempDir()
	if out, err := runCLI(t, dir, bin, "40", "80", "100"); err == nil {
		t.Fatalf("inverted exponents accepted:\n%s", out)
	}
	if out, err := runCLI(t, dir, bin, "1", "2"); err == nil {
		t.Fatalf("missing argument accepted:\n%s", out)
	}
}

func TestCLIListWorkloads(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	out, err := runCLI(t, t.TempDir(), bin, "list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, w := range []string{"pi", "diffusion", "transport", "dsmc", "chem", "option", "dirichlet", "density"} {
		if !strings.Contains(out, w) {
			t.Errorf("workload %s missing from list:\n%s", w, out)
		}
	}
}

// TestCLIListJSONGolden pins the machine-readable registry byte for
// byte. The golden file holds names, descriptions, schemas, default
// dimensions and the parameter fingerprints at defaults — if this test
// fails, either a workload changed identity (bump its schema version
// and regenerate) or the listing format drifted. Regenerate with:
//
//	go run ./cmd/parmonc list -json > testdata/list_golden.json
func TestCLIListJSONGolden(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	out, err := runCLI(t, t.TempDir(), bin, "list", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	golden, err := os.ReadFile("testdata/list_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("list -json drifted from testdata/list_golden.json:\n%s", out)
	}
	// And it is valid JSON naming every workload.
	var entries []struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(entries) != 13 {
		t.Fatalf("%d workloads listed, want 13", len(entries))
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Fingerprint, e.Name+"@v") {
			t.Fatalf("entry %s has malformed fingerprint %q", e.Name, e.Fingerprint)
		}
	}
}

// TestCLISetChangesResultsDeterministically: the same -set produces
// bit-identical results across runs, and a different -set produces
// different results — parameterization is real and reproducible.
func TestCLISetChangesResultsDeterministically(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	run := func(sets ...string) (mean float64, scenario string) {
		t.Helper()
		args := []string{"run", "-workload", "mm1", "-set", "warmup=20", "-set", "batch=20",
			"-maxsv", "400", "-workers", "1", "-perpass", "5ms", "-peraver", "10ms", "-json"}
		for _, s := range sets {
			args = append(args, "-set", s)
		}
		out, err := runCLI(t, t.TempDir(), bin, args...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		var res struct {
			Mean     []float64 `json:"mean"`
			Scenario string    `json:"scenario"`
			Workload string    `json:"workload"`
		}
		if err := json.Unmarshal([]byte(out), &res); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, out)
		}
		if res.Workload != "mm1" {
			t.Fatalf("workload %q in JSON output", res.Workload)
		}
		return res.Mean[0], res.Scenario
	}

	base1, scen1 := run()
	base2, scen2 := run()
	if base1 != base2 || scen1 != scen2 {
		t.Fatalf("identical runs diverge: %v/%v, %q/%q", base1, base2, scen1, scen2)
	}
	loaded, scen3 := run("lambda=0.8")
	if loaded == base1 {
		t.Fatalf("-set lambda=0.8 did not change the result (mean %v)", loaded)
	}
	if scen3 == scen1 || !strings.Contains(scen3, `"lambda":0.8`) {
		t.Fatalf("scenario %q does not record the override", scen3)
	}
	// Heavier load ⇒ longer M/M/1 waits; direction is physics, not luck.
	if loaded <= base1 {
		t.Fatalf("mean wait at λ=0.8 (%v) not above λ=0.6 (%v)", loaded, base1)
	}
}

// TestCLIScenarioSpecRoundTrip: a run parameterized by -set records a
// canonical scenario JSON in parmonc_exp.dat, and re-running from that
// spec via -scenario reproduces the result exactly.
func TestCLIScenarioSpecRoundTrip(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()
	out, err := runCLI(t, dir, bin, "run", "-workload", "density", "-set", "bins=5", "-set", "rate=2",
		"-maxsv", "2000", "-workers", "1", "-perpass", "5ms", "-peraver", "10ms", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var res struct {
		Mean     []float64 `json:"mean"`
		Scenario string    `json:"scenario"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(res.Mean) != 5 {
		t.Fatalf("bins=5 produced %d columns", len(res.Mean))
	}

	// The experiment log carries the same canonical spec.
	expRaw, err := os.ReadFile(filepath.Join(dir, "parmonc_data", "parmonc_exp.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(expRaw), "scenario="+res.Scenario) {
		t.Fatalf("parmonc_exp.dat does not record scenario %q:\n%s", res.Scenario, expRaw)
	}
	if !strings.Contains(string(expRaw), "workload=density@v1/") {
		t.Fatalf("parmonc_exp.dat does not record the fingerprint:\n%s", expRaw)
	}

	// Re-run from the recorded spec file: bit-identical result.
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(res.Scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := runCLI(t, t.TempDir(), bin, "run", "-scenario", specPath,
		"-maxsv", "2000", "-workers", "1", "-perpass", "5ms", "-peraver", "10ms", "-json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out2)
	}
	var res2 struct {
		Mean     []float64 `json:"mean"`
		Scenario string    `json:"scenario"`
	}
	if err := json.Unmarshal([]byte(out2), &res2); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out2)
	}
	if res2.Scenario != res.Scenario {
		t.Fatalf("scenario not canonical across round trip: %q vs %q", res2.Scenario, res.Scenario)
	}
	for i := range res.Mean {
		if res.Mean[i] != res2.Mean[i] {
			t.Fatalf("Mean[%d] %v != %v after -scenario round trip", i, res.Mean[i], res2.Mean[i])
		}
	}

	// A conflicting -workload alongside -scenario is refused.
	if out, err := runCLI(t, t.TempDir(), bin, "run", "-scenario", specPath, "-workload", "pi",
		"-maxsv", "10"); err == nil || !strings.Contains(out, "but -workload says") {
		t.Fatalf("conflicting -workload accepted: %v\n%s", err, out)
	}
}

// TestCLICoordWorkerParamMismatch is the end-to-end regression test for
// the registration hole: a TCP worker running the same workload with a
// different -set is rejected at registration with an error naming the
// parameter, and never contributes samples.
func TestCLICoordWorkerParamMismatch(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	coord := exec.Command(bin, "coord", "-workload", "mm1",
		"-set", "warmup=20", "-set", "batch=20", "-maxsv", "2000",
		"-addr", addr, "-peraver", "10ms", "-pass-every", "200")
	coord.Dir = dir
	var coordOut strings.Builder
	coord.Stdout = &coordOut
	coord.Stderr = &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	time.Sleep(300 * time.Millisecond)

	// Mismatched parameterization: rejected, names the parameter.
	bad := exec.Command(bin, "worker", "-addr", addr, "-workload", "mm1",
		"-set", "warmup=20", "-set", "batch=20", "-set", "lambda=0.9")
	bad.Dir = dir
	badOut, err := bad.CombinedOutput()
	if err == nil {
		t.Fatalf("mismatched worker exited zero:\n%s", badOut)
	}
	if !strings.Contains(string(badOut), `workload "mm1": parameter lambda mismatch: worker has 0.9, the job has 0.6`) {
		t.Fatalf("rejection does not pin the parameter:\n%s", badOut)
	}

	// Matching parameterization: completes the job.
	good := exec.Command(bin, "worker", "-addr", addr, "-workload", "mm1",
		"-set", "warmup=20", "-set", "batch=20")
	good.Dir = dir
	if out, err := good.CombinedOutput(); err != nil {
		t.Fatalf("matching worker: %v\n%s", err, out)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
	}
	if !strings.Contains(coordOut.String(), "job finished") {
		t.Fatalf("coordinator output:\n%s", coordOut.String())
	}
}

func TestCLIUnknownWorkload(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	out, err := runCLI(t, t.TempDir(), bin, "run", "-workload", "nope", "-maxsv", "10")
	if err == nil {
		t.Fatalf("unknown workload accepted:\n%s", out)
	}
	if !strings.Contains(out, "available") {
		t.Fatalf("error does not list workloads:\n%s", out)
	}
}

// TestCLINegativeDurationFlagsRejected: the negative values that used
// to select the polling and per-window fleet modes are usage errors
// naming the flag — reported before anything is dialed, listened on or
// written.
func TestCLINegativeDurationFlagsRejected(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"worker push-interval", []string{"worker", "-service", "-addr", "127.0.0.1:1", "-push-interval", "-1ms"}, "-push-interval"},
		{"worker pull-wait", []string{"worker", "-service", "-addr", "127.0.0.1:1", "-pull-wait", "-1s"}, "-pull-wait"},
		{"serve pull-wait", []string{"serve", "-http", "127.0.0.1:0", "-fleet", "127.0.0.1:0", "-pull-wait", "-1s"}, "-pull-wait"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, err := runCLI(t, dir, bin, tc.args...)
			if err == nil {
				t.Fatalf("negative duration accepted:\n%s", out)
			}
			if !strings.Contains(out, tc.flag) || !strings.Contains(out, "must not be negative") {
				t.Fatalf("error does not name the flag %s:\n%s", tc.flag, out)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("rejected command left %d entries in its working directory", len(left))
			}
		})
	}
}

func TestCLIFig2Capacities(t *testing.T) {
	bin := buildCLI(t, "cmd/fig2")
	out, err := runCLI(t, t.TempDir(), bin, "-capacities")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"2^126", "131072", "1024"} {
		if !strings.Contains(out, want) {
			t.Errorf("capacities output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFig2PanelA(t *testing.T) {
	bin := buildCLI(t, "cmd/fig2")
	out, err := runCLI(t, t.TempDir(), bin, "-panel", "a")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "M=1") || !strings.Contains(out, "M=8") || !strings.Contains(out, "speedup") {
		t.Fatalf("panel a output:\n%s", out)
	}
}

func TestCLICoordWorkerDistributedJob(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	dir := t.TempDir()

	// Reserve a port for the coordinator.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	coord := exec.Command(bin, "coord", "-workload", "pi", "-maxsv", "30000",
		"-addr", addr, "-peraver", "10ms", "-pass-every", "500")
	coord.Dir = dir
	var coordOut strings.Builder
	coord.Stdout = &coordOut
	coord.Stderr = &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// Give the listener a moment, then attach two workers.
	time.Sleep(300 * time.Millisecond)
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			w := exec.Command(bin, "worker", "-workload", "pi", "-addr", addr)
			w.Dir = dir
			out, err := w.CombinedOutput()
			if err != nil {
				err = fmt.Errorf("%v\n%s", err, out)
			}
			workerErr <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordOut.String())
	}
	if !strings.Contains(coordOut.String(), "job finished") {
		t.Fatalf("coordinator output:\n%s", coordOut.String())
	}
	// Results on disk: π/4 within a loose bound.
	raw, err := os.ReadFile(filepath.Join(dir, "parmonc_data", "results", "func.dat"))
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "%g", &mean); err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-math.Pi/4) > 0.02 {
		t.Fatalf("distributed mean %g", mean)
	}
}

func TestCLIRngtestPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("rngtest CLI is slow")
	}
	bin := buildCLI(t, "cmd/rngtest")
	out, err := runCLI(t, t.TempDir(), bin, "-n", "100000", "-cross", "2")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "all tests passed") {
		t.Fatalf("rngtest output:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("rngtest reported failures:\n%s", out)
	}
}

func TestCLIFig2Ablation(t *testing.T) {
	bin := buildCLI(t, "cmd/fig2")
	out, err := runCLI(t, t.TempDir(), bin, "-ablation")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "pass-every") || !strings.Contains(out, "15330") {
		t.Fatalf("ablation output:\n%s", out)
	}
}

// TestCLIGenparamGoldenMultipliers pins genparam's printed leap
// multipliers for two fixed exponent sets — the hex values are the
// library's Â(n) = A^n mod 2^128, and any change here means the RNG
// hierarchy is producing different substreams than every prior run.
func TestCLIGenparamGoldenMultipliers(t *testing.T) {
	bin := buildCLI(t, "cmd/genparam")
	cases := []struct {
		args   []string
		golden []string
	}{
		{[]string{"115", "98", "43"}, []string{ // the paper's defaults
			"Â(n_e) = 77600000000000000000000000000001",
			"Â(n_p) = b424bbb0000000000000000000000001",
			"Â(n_r) = 402b44410f5535684977600000000001",
			"capacity: 1024 experiments × 131072 processors × 36028797018963968 realizations",
		}},
		{[]string{"20", "10", "5"}, []string{
			"Â(n_e) = be6112e74cc17fe3433f9892eec00001",
			"Â(n_p) = 88279b6b877c6c6e1fa26649713bb001",
			"Â(n_r) = fd0b0d82cf7502b6bb7543c5fe88fd81",
			"capacity: 40564819207303340847894502572032 experiments × 1024 processors × 32 realizations",
		}},
	}
	for _, tc := range cases {
		out, err := runCLI(t, t.TempDir(), bin, tc.args...)
		if err != nil {
			t.Fatalf("genparam %v: %v\n%s", tc.args, err, out)
		}
		for _, want := range tc.golden {
			if !strings.Contains(out, want) {
				t.Errorf("genparam %v output missing %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// TestCLIGenparamDirFlag: -dir places the parameter file elsewhere and
// the run directory stays untouched.
func TestCLIGenparamDirFlag(t *testing.T) {
	bin := buildCLI(t, "cmd/genparam")
	runDir, paramDir := t.TempDir(), t.TempDir()
	out, err := runCLI(t, runDir, bin, "-dir", paramDir, "100", "80", "40")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(paramDir, "parmonc_genparam.dat")); err != nil {
		t.Fatalf("parameter file not in -dir target: %v", err)
	}
	if _, err := os.Stat(filepath.Join(runDir, "parmonc_genparam.dat")); !os.IsNotExist(err) {
		t.Fatalf("parameter file leaked into the working directory (stat err %v)", err)
	}
	if !strings.Contains(out, paramDir) {
		t.Fatalf("output does not name the target directory:\n%s", out)
	}
}

// TestCLIManaverEmptyDirFails: without a simulation to average, manaver
// must explain itself on stderr and exit nonzero rather than write
// anything.
func TestCLIManaverEmptyDirFails(t *testing.T) {
	bin := buildCLI(t, "cmd/manaver")
	dir := t.TempDir()
	out, err := runCLI(t, dir, bin)
	if err == nil {
		t.Fatalf("manaver succeeded in an empty directory:\n%s", out)
	}
	if !strings.Contains(out, "manaver:") {
		t.Fatalf("error output missing the manaver: prefix:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed manaver left files behind: %v", entries)
	}
}

// TestCLIManaverDirFlag: manaver run from an unrelated directory finds
// the simulation through -dir, and its recovered totals match what the
// run reported.
func TestCLIManaverDirFlag(t *testing.T) {
	parmoncBin := buildCLI(t, "cmd/parmonc")
	manaverBin := buildCLI(t, "cmd/manaver")
	simDir, elsewhere := t.TempDir(), t.TempDir()

	if out, err := runCLI(t, simDir, parmoncBin, "run", "-workload", "pi", "-maxsv", "20000",
		"-perpass", "5ms", "-peraver", "10ms"); err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	out, err := runCLI(t, elsewhere, manaverBin, "-dir", simDir)
	if err != nil {
		t.Fatalf("manaver -dir: %v\n%s", err, out)
	}
	if !strings.Contains(out, "averaged results rewritten") ||
		!strings.Contains(out, "total sample volume") {
		t.Fatalf("manaver output:\n%s", out)
	}
	if !regexp.MustCompile(`total sample volume:?\s+2\d{4}`).MatchString(out) {
		t.Fatalf("recovered sample volume not ≈20000:\n%s", out)
	}
}

// dataDirContents lists the files under a parmonc_data directory,
// relative to it, with worker snapshot files folded into one
// "workers/worker-*.dat" entry.
func dataDirContents(t *testing.T, data string) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(data, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(data, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if ok, _ := filepath.Match("workers/worker-[0-9][0-9][0-9][0-9][0-9][0-9].dat", rel); ok {
			rel = "workers/worker-*.dat"
		}
		seen[rel] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// TestCLIDataDirContract: after `parmonc run`, parmonc_data holds exactly
// the paper's three results files, the run image (checkpoint.dat), the
// experiment log and the event journal, plus the per-worker snapshot
// files when they are enabled — no other state file.
func TestCLIDataDirContract(t *testing.T) {
	bin := buildCLI(t, "cmd/parmonc")
	for _, snapshots := range []bool{true, false} {
		dir := t.TempDir()
		out, err := runCLI(t, dir, bin, "run", "-workload", "pi", "-maxsv", "20000", "-workers", "2",
			"-perpass", "5ms", "-peraver", "10ms", fmt.Sprintf("-worker-snapshots=%t", snapshots))
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		want := []string{"checkpoint.dat", "events.jsonl", "parmonc_exp.dat",
			"results/func.dat", "results/func_ci.dat", "results/func_log.dat"}
		if snapshots {
			want = append(want, "workers/worker-*.dat")
		}
		sort.Strings(want)
		if got := dataDirContents(t, filepath.Join(dir, "parmonc_data")); !reflect.DeepEqual(got, want) {
			t.Errorf("-worker-snapshots=%t: parmonc_data holds %q, want %q", snapshots, got, want)
		}
	}
}
