package runmgr

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"parmonc/internal/obs"
	"parmonc/internal/store"
	"parmonc/internal/workload"
)

// TestRunJournalTellsStoryNotTraffic pins the run journal's contract at
// strict exchange (one push window per realization): the journal holds
// the run's story — grants, completions, saves — and no per-window
// push or merge line, so its length follows the lease and save counts,
// not the sample volume, and the writer never falls behind and drops.
func TestRunJournalTellsStoryNotTraffic(t *testing.T) {
	for _, maxsv := range []int64{2_000, 20_000} {
		cfg := testConfig(t)
		m := newManager(t, cfg)
		ctx, cancel := context.WithCancel(context.Background())
		g := m.StartLocalWorkers(ctx, 2, FleetWorkerConfig{})
		st, err := m.Submit(Submission{
			Scenario:   workload.Spec{Workload: "pi"},
			MaxSamples: maxsv,
			PassEvery:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone, 60*time.Second)
		cancel()
		if _, err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		r := m.runs[st.ID]
		dropped, saves := r.journal.Dropped(), r.eng.Metrics().Saves
		m.mu.Unlock()

		d, err := store.Open(filepath.Join(cfg.DataRoot, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJournal(d.JournalPath())
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, e := range events {
			kinds[e.Kind]++
		}
		t.Logf("L = %d: %d lines, %d saves, kinds %v", maxsv, len(events), saves, kinds)
		if dropped != 0 {
			t.Errorf("L = %d: journal dropped %d events", maxsv, dropped)
		}
		for _, absent := range []string{"push", "merge"} {
			if kinds[absent] != 0 {
				t.Errorf("L = %d: %d %q lines, want none", maxsv, kinds[absent], absent)
			}
		}
		for _, want := range []string{"lease_grant", "lease_complete", "save"} {
			if kinds[want] == 0 {
				t.Errorf("L = %d: no %q line", maxsv, want)
			}
		}
		// Per lease: a grant, a completion and possibly a reissue; plus
		// the saves and a handful of lifecycle lines.
		if limit := 3*kinds["lease_grant"] + int(saves) + 16; len(events) > limit {
			t.Errorf("L = %d: %d journal lines, want at most %d (leases + saves + constant)", maxsv, len(events), limit)
		}
	}
}
