package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"parmonc/internal/workload"

	// Registered workloads for resolving real identities in these tests.
	_ "parmonc/internal/workload/builtin"
)

// TestSpecValidateMessages is the table-driven contract for JobSpec
// validation: each broken invariant is rejected with a message naming
// the offending field and value, because this text is what an operator
// sees when a job refuses to start.
func TestSpecValidateMessages(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string // substring of the error text
	}{
		{"zero rows", func(s *JobSpec) { s.Nrow = 0 }, "invalid dimensions 0×1"},
		{"negative cols", func(s *JobSpec) { s.Ncol = -1 }, "invalid dimensions"},
		{"zero pass-every", func(s *JobSpec) { s.PassEvery = 0 }, "PassEvery 0 must be >= 1"},
		{"negative pass-every", func(s *JobSpec) { s.PassEvery = -5 }, "PassEvery -5 must be >= 1"},
		{"zero gamma", func(s *JobSpec) { s.Gamma = 0 }, "confidence coefficient 0 must be positive"},
		{"negative gamma", func(s *JobSpec) { s.Gamma = -1 }, "confidence coefficient -1 must be positive"},
		{"negative lease size", func(s *JobSpec) { s.LeaseSize = -1 }, "LeaseSize -1 must not be negative"},
		{"negative heartbeat", func(s *JobSpec) { s.Heartbeat = -time.Second }, "must not be negative"},
		{"bad rng nesting", func(s *JobSpec) { s.Params.ProcessorLeapLog2 = 126 }, "rng:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec(100)
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Valid specs, including the boundary values, pass.
	ok := testSpec(100)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	ok.LeaseSize = 0 // zero = automatic lease granularity
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	ok.LeaseSize = 1
	ok.Heartbeat = time.Millisecond
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadMismatchErrorText pins the exact registration error a
// misconfigured worker reports: it must name both workloads so the
// operator can tell which side is wrong — and it must not be retried,
// since a coordinator-side rejection is definitive, not a transport
// fault.
func TestWorkloadMismatchErrorText(t *testing.T) {
	spec := testSpec(1000)
	spec.Workload = fullIdentity(t, "pi", nil)
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	policy := DefaultRetryPolicy()
	policy.BaseDelay = time.Millisecond
	rc := NewResilientClient(coord.Addr(), policy)
	defer rc.Close()

	var reply RegisterReply
	err = rc.Call(context.Background(), ServiceName+".Register",
		RegisterArgs{Workload: fullIdentity(t, "diffusion", nil), ClientID: "mismatched"}, &reply)
	if err == nil {
		t.Fatal("mismatched workload accepted")
	}
	want := `cluster: worker runs workload "diffusion" but the job is "pi"`
	if got := err.Error(); got != want {
		t.Fatalf("worker sees %q, want %q", got, want)
	}
	if st := rc.Stats(); st.Retries != 0 {
		t.Fatalf("definitive rejection was retried %d times", st.Retries)
	}

	// The same text reaches RunWorker callers (wrapped with the call
	// site).
	if _, err := RunWorker(context.Background(), coord.Addr(),
		WorkerConfig{Workload: fullIdentity(t, "diffusion", nil)}, uniformRealization); err == nil ||
		!strings.Contains(err.Error(), want) {
		t.Fatalf("RunWorker error %v does not carry %q", err, want)
	}
}

// fullIdentity resolves a registered workload's identity with the given
// parameter overrides, failing the test on any schema error.
func fullIdentity(t *testing.T, name string, overrides workload.Values) workload.Identity {
	t.Helper()
	def, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	id, err := def.Identity(overrides)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestWorkloadParameterMismatchErrorText pins the exact registration
// errors of the fingerprint-level identity check: a worker running the
// same-named workload with different parameters, different dimensions,
// or a different schema version is rejected with a message naming the
// first differing field and both sides' values. This is the regression
// test for the hole the bare-string check had — such workers used to be
// accepted and their moments silently merged.
func TestWorkloadParameterMismatchErrorText(t *testing.T) {
	jobID := fullIdentity(t, "mm1", nil) // lambda=0.6 mu=1 warmup=2000 batch=2000
	cases := []struct {
		name   string
		worker workload.Identity
		want   string // exact error text, "" = accepted
	}{
		{
			"parameter mismatch",
			fullIdentity(t, "mm1", workload.Values{"lambda": 0.8}),
			`cluster: workload "mm1": parameter lambda mismatch: worker has 0.8, the job has 0.6`,
		},
		{
			"dimension mismatch",
			func() workload.Identity {
				id := fullIdentity(t, "mm1", nil)
				id.Nrow, id.Ncol = 2, 3
				return id
			}(),
			`cluster: workload "mm1": worker realization is 2×3 but the job is 1×1`,
		},
		{
			"schema version mismatch",
			func() workload.Identity {
				id := fullIdentity(t, "mm1", nil)
				id.SchemaVersion = 2
				return id
			}(),
			`cluster: workload "mm1": worker uses parameter schema v2 but the job uses v1`,
		},
		{
			"wrong workload name",
			fullIdentity(t, "pi", nil),
			`cluster: worker runs workload "pi" but the job is "mm1"`,
		},
		{"identical identity", fullIdentity(t, "mm1", nil), ""},
		{
			"name without a fingerprint",
			workload.Identity{Name: "mm1"},
			`cluster: workload "mm1": worker uses parameter schema v0 but the job uses v1`,
		},
		{"anonymous worker", workload.Identity{}, ""},
	}

	spec := testSpec(1000)
	spec.Nrow, spec.Ncol = jobID.Nrow, jobID.Ncol
	spec.Workload = jobID
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: t.TempDir()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	policy := DefaultRetryPolicy()
	policy.BaseDelay = time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := NewResilientClient(coord.Addr(), policy)
			defer rc.Close()
			var reply RegisterReply
			err := rc.Call(context.Background(), ServiceName+".Register",
				RegisterArgs{Workload: tc.worker, ClientID: "t-" + tc.name}, &reply)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("identity rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("mismatched identity accepted")
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("worker sees\n  %q\nwant\n  %q", got, tc.want)
			}
			if st := rc.Stats(); st.Retries != 0 {
				t.Fatalf("definitive rejection was retried %d times", st.Retries)
			}
		})
	}
}

// TestWorkloadParameterMismatchEndToEnd drives the rejection through the
// full worker loop over TCP: a worker parameterized with a different
// -set must never contribute samples, and the job still completes from
// correctly-parameterized workers.
func TestWorkloadParameterMismatchEndToEnd(t *testing.T) {
	jobID := fullIdentity(t, "mm1", workload.Values{"warmup": 10, "batch": 10})
	spec := testSpec(400)
	spec.Nrow, spec.Ncol = jobID.Nrow, jobID.Ncol
	spec.Workload = jobID
	coord, err := NewCoordinator(spec, CoordinatorConfig{WorkDir: t.TempDir(), AverPeriod: time.Millisecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	badID := fullIdentity(t, "mm1", workload.Values{"warmup": 10, "batch": 10, "lambda": 0.9})
	if _, err := RunWorker(ctx, coord.Addr(), WorkerConfig{Workload: badID}, uniformRealization); err == nil {
		t.Fatal("differently-parameterized worker accepted")
	} else if !strings.Contains(err.Error(), "parameter lambda mismatch") {
		t.Fatalf("rejection %v does not name the differing parameter", err)
	}

	rep, err := RunWorker(ctx, coord.Addr(), WorkerConfig{Workload: jobID}, uniformRealization)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Realizations != 400 {
		t.Fatalf("matching worker computed %d of 400 realizations", rep.Realizations)
	}
	coord.Stop()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}
