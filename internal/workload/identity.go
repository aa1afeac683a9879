package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
)

// Identity is the canonical, wire-transportable identity of a
// parameterized workload: the name, the schema version, the resolved
// output dimensions and parameter values, and a digest over all of
// them. It replaces the bare workload-name string in the cluster
// protocol, closing the hole where a worker running the same-named
// scenario with different parameters or dimensions would be accepted at
// registration and silently corrupt the merged statistics — the
// parallel-vs-serial divergence Lubachevsky warns about
// (arXiv:1104.0198).
//
// The zero Identity means "unnamed" — a user-supplied factory the
// registry knows nothing about: no check is performed against it.
type Identity struct {
	Name          string             `json:"name"`
	SchemaVersion int                `json:"schema_version"`
	Nrow          int                `json:"nrow"`
	Ncol          int                `json:"ncol"`
	Params        map[string]float64 `json:"params,omitempty"`
	// Digest is the hex SHA-256 of the canonical identity string; it is
	// what journals and metrics label runs with, and the last-resort
	// equality check on the wire.
	Digest string `json:"digest"`
}

// Identity computes the canonical identity of the definition at the
// given resolved values (which must satisfy the schema).
func (d Definition) Identity(v Values) (Identity, error) {
	resolved, err := d.Schema.Resolve(v)
	if err != nil {
		return Identity{}, err
	}
	nrow, ncol := d.Dims(resolved)
	if nrow <= 0 || ncol <= 0 {
		return Identity{}, fmt.Errorf("workload %q: dimensions %d×%d invalid at %s",
			d.Name, nrow, ncol, resolved.canonical())
	}
	id := Identity{
		Name:          d.Name,
		SchemaVersion: d.Schema.Version,
		Nrow:          nrow,
		Ncol:          ncol,
		Params:        resolved,
	}
	sum := sha256.Sum256([]byte(id.canonical()))
	id.Digest = hex.EncodeToString(sum[:])
	return id, nil
}

// canonical renders the digest input: every identity-bearing field in a
// fixed order with deterministic number formatting, so the digest is
// identical across processes, architectures and map iteration orders.
func (id Identity) canonical() string {
	return id.Name + "|schema=" + strconv.Itoa(id.SchemaVersion) +
		"|dims=" + strconv.Itoa(id.Nrow) + "x" + strconv.Itoa(id.Ncol) +
		"|" + Values(id.Params).canonical()
}

// IsZero reports whether the identity is the unnamed zero value.
func (id Identity) IsZero() bool { return id.Name == "" }

// Fingerprint is the short human-facing form of the identity —
// "name@v1/0123456789ab" — used as the journal field and metrics label.
func (id Identity) Fingerprint() string {
	if id.IsZero() {
		return ""
	}
	short := id.Digest
	if len(short) > 12 {
		short = short[:12]
	}
	return fmt.Sprintf("%s@v%d/%s", id.Name, id.SchemaVersion, short)
}

// CheckWorker compares a worker's identity against the job's (the
// receiver), returning nil when the worker may join and a precise,
// operator-facing error otherwise: the error names the first field that
// differs and both sides' values, so a rejected registration says
// exactly which side to fix. An unnamed (zero) identity on either side
// skips the check.
func (job Identity) CheckWorker(w Identity) error {
	if job.IsZero() || w.IsZero() {
		return nil
	}
	if w.Name != job.Name {
		return fmt.Errorf("worker runs workload %q but the job is %q", w.Name, job.Name)
	}
	if w.SchemaVersion != job.SchemaVersion {
		return fmt.Errorf("workload %q: worker uses parameter schema v%d but the job uses v%d",
			job.Name, w.SchemaVersion, job.SchemaVersion)
	}
	if w.Nrow != job.Nrow || w.Ncol != job.Ncol {
		return fmt.Errorf("workload %q: worker realization is %d×%d but the job is %d×%d",
			job.Name, w.Nrow, w.Ncol, job.Nrow, job.Ncol)
	}
	keys := map[string]bool{}
	for k := range job.Params {
		keys[k] = true
	}
	for k := range w.Params {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		jv, jok := job.Params[k]
		wv, wok := w.Params[k]
		switch {
		case jok && !wok:
			return fmt.Errorf("workload %q: worker lacks parameter %s (the job has %s=%g)",
				job.Name, k, k, jv)
		case wok && !jok:
			return fmt.Errorf("workload %q: worker has parameter %s=%g the job does not know",
				job.Name, k, wv)
		case jv != wv:
			return fmt.Errorf("workload %q: parameter %s mismatch: worker has %g, the job has %g",
				job.Name, k, wv, jv)
		}
	}
	if w.Digest != job.Digest {
		return fmt.Errorf("workload %q: parameter fingerprint mismatch (worker %s, job %s)",
			job.Name, w.Fingerprint(), job.Fingerprint())
	}
	return nil
}
