package workload

import (
	"strings"
	"testing"

	"parmonc/internal/core"
	"parmonc/internal/rng"
)

func unitFactory(Values) (core.Factory, error) {
	return func(int) (core.Realization, error) {
		return func(src *rng.Stream, out []float64) error {
			out[0] = src.Float64()
			return nil
		}, nil
	}, nil
}

func testDef() Definition {
	return Definition{
		Name:        "unit",
		Description: "test workload",
		Schema: Schema{
			Version: 1,
			Params: []Param{
				{Name: "rate", Description: "a rate", Kind: Float, Default: 1, Positive: true},
				{Name: "bins", Description: "a count", Kind: Int, Default: 4, Min: Bound(1), Max: Bound(64)},
			},
		},
		Dims:    func(v Values) (int, int) { return 1, v.Int("bins") },
		Factory: unitFactory,
	}
}

func TestSchemaResolve(t *testing.T) {
	s := testDef().Schema
	cases := []struct {
		name      string
		overrides Values
		wantErr   string // substring, "" = success
	}{
		{"defaults", nil, ""},
		{"valid override", Values{"rate": 2.5}, ""},
		{"unknown key", Values{"nope": 1}, `unknown parameter "nope"`},
		{"non-integral int", Values{"bins": 2.5}, `must be an integer`},
		{"below min", Values{"bins": 0}, `must be >= 1`},
		{"above max", Values{"bins": 65}, `must be <= 64`},
		{"violates positive", Values{"rate": 0}, `must be > 0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := s.Resolve(tc.overrides)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Resolved values carry every schema parameter.
			for _, p := range s.Params {
				if _, ok := v[p.Name]; !ok {
					t.Fatalf("resolved values lack %s", p.Name)
				}
			}
		})
	}
}

func TestIdentityDeterministic(t *testing.T) {
	d := testDef()
	a, err := d.Identity(Values{"rate": 0.125, "bins": 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Identity(Values{"bins": 8, "rate": 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("identity not deterministic: %q vs %q", a.Digest, b.Digest)
	}
	if a.Nrow != 1 || a.Ncol != 8 {
		t.Fatalf("dims %d×%d, want 1×8", a.Nrow, a.Ncol)
	}
	if want := "unit@v1/" + a.Digest[:12]; a.Fingerprint() != want {
		t.Fatalf("fingerprint %q, want %q", a.Fingerprint(), want)
	}

	// Any parameter change changes the digest.
	c, err := d.Identity(Values{"rate": 0.25, "bins": 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("different parameters share a digest")
	}
}

func TestCheckWorkerMessages(t *testing.T) {
	d := testDef()
	job, err := d.Identity(nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*Identity)) Identity {
		id, err := d.Identity(nil)
		if err != nil {
			t.Fatal(err)
		}
		f(&id)
		return id
	}
	paramChanged, err := d.Identity(Values{"rate": 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		worker Identity
		want   string // exact text, "" = accepted
	}{
		{"zero worker", Identity{}, ""},
		{"name without a fingerprint", Identity{Name: "unit"},
			`workload "unit": worker uses parameter schema v0 but the job uses v1`},
		{"identical", job, ""},
		{"wrong name", mutate(func(id *Identity) { id.Name = "other" }), `worker runs workload "other" but the job is "unit"`},
		{"schema version", mutate(func(id *Identity) { id.SchemaVersion = 9 }),
			`workload "unit": worker uses parameter schema v9 but the job uses v1`},
		{"dims", mutate(func(id *Identity) { id.Nrow = 7 }),
			`workload "unit": worker realization is 7×4 but the job is 1×4`},
		{"param value", paramChanged,
			`workload "unit": parameter rate mismatch: worker has 3, the job has 1`},
		{"param missing", mutate(func(id *Identity) { delete(id.Params, "rate") }),
			`workload "unit": worker lacks parameter rate (the job has rate=1)`},
		{"param extra", mutate(func(id *Identity) { id.Params["zeta"] = 1 }),
			`workload "unit": worker has parameter zeta=1 the job does not know`},
		{"digest only", mutate(func(id *Identity) { id.Digest = "feedbeef" }),
			`workload "unit": parameter fingerprint mismatch (worker unit@v1/feedbeef, job ` + job.Fingerprint() + `)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := job.CheckWorker(tc.worker)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("accepted identity rejected: %v", err)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("got\n  %v\nwant\n  %s", err, tc.want)
			}
		})
	}

	// A zero job accepts anyone.
	if err := (Identity{}).CheckWorker(paramChanged); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := Spec{Workload: "unit", Params: Values{"rate": 0.125, "bins": 8}}
	c := s.Canonical()
	if strings.ContainsAny(c, " \t\n") {
		t.Fatalf("canonical spec contains whitespace: %q", c)
	}
	back, err := ParseSpec([]byte(c))
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != s.Workload || len(back.Params) != len(s.Params) {
		t.Fatalf("round trip changed the spec: %+v", back)
	}
	for k, v := range s.Params {
		if back.Params[k] != v {
			t.Fatalf("param %s: %g != %g", k, back.Params[k], v)
		}
	}
	if back.Canonical() != c {
		t.Fatalf("canonical not a fixed point: %q vs %q", back.Canonical(), c)
	}
}

func TestSpecRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"unknown field", `{"workload":"unit","parms":{"rate":1}}`},
		{"no name", `{"params":{"rate":1}}`},
		{"bad name", `{"workload":"No Such!"}`},
		{"bad param key", `{"workload":"unit","params":{"Bad Key":1}}`},
		{"trailing data", `{"workload":"unit"}{"workload":"unit"}`},
		{"not json", `workload=unit`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(tc.data)); err == nil {
				t.Fatalf("malformed spec accepted: %s", tc.data)
			}
		})
	}
}

func TestParseSet(t *testing.T) {
	k, v, err := ParseSet("lambda=0.8")
	if err != nil || k != "lambda" || v != 0.8 {
		t.Fatalf("got %q %g %v", k, v, err)
	}
	for _, bad := range []string{"lambda", "=1", "Lambda=1", "lambda=", "lambda=x", "lambda=NaN", "lambda=+Inf", "0abc=1"} {
		if _, _, err := ParseSet(bad); err == nil {
			t.Errorf("ParseSet(%q) accepted", bad)
		}
	}
	// Later assignment wins, as with repeated flags.
	v2, err := ParseSets([]string{"a=1", "b=2", "a=3"})
	if err != nil {
		t.Fatal(err)
	}
	if v2["a"] != 3 || v2["b"] != 2 {
		t.Fatalf("ParseSets: %v", v2)
	}
}

func TestFormatSetInvertsParseSet(t *testing.T) {
	for _, val := range []float64{0, 1, -1, 0.6, 1e-9, 12345678.90123, 1e300} {
		s := FormatSet("k", val)
		k, v, err := ParseSet(s)
		if err != nil || k != "k" || v != val {
			t.Fatalf("round trip of %g via %q: %q %g %v", val, s, k, v, err)
		}
	}
}

func TestRegisterLookup(t *testing.T) {
	d := testDef()
	d.Name = "unit_register_test"
	Register(d)
	got, err := Lookup(d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Description != d.Description {
		t.Fatalf("lookup returned %+v", got)
	}
	if _, err := Lookup("no_such_workload"); err == nil ||
		!strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown-workload error %v does not list what is available", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate registration did not panic")
			}
		}()
		Register(d)
	}()
}
