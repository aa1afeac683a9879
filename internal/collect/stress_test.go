package collect

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parmonc/internal/rng"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// Concurrency stress test for the sharded collector: many goroutines
// hammer PushFrom / Touch / Overdue / Save / Progress concurrently
// for a fixed op budget, and the final counters and report bytes must
// match a single-threaded replay of the same per-worker op logs. Run
// with -race; the replay assertion is what turns "didn't crash" into
// "merged exactly once, in a deterministic reduction order".

const (
	stressWorkers      = 64
	stressOpsPerWorker = 150
)

type stressOp struct {
	seq       uint64 // sequence number carried by the push
	snap      stat.Snapshot
	duplicate bool // re-push of the previous sequence number (dedup fodder)
	touch     bool // heartbeat instead of a push
}

// stressLog generates worker w's deterministic op log: sequenced pushes
// with occasional duplicate deliveries and interleaved heartbeats.
func stressLog(w int) []stressOp {
	r := rand.New(rand.NewSource(9000 + int64(w)))
	ops := make([]stressOp, 0, stressOpsPerWorker)
	seq := uint64(0)
	row := make([]float64, 4*3)
	for len(ops) < stressOpsPerWorker {
		switch {
		case r.Intn(10) == 0:
			ops = append(ops, stressOp{touch: true})
		case seq > 0 && r.Intn(5) == 0:
			// Redeliver the latest push (same seq, same payload): the
			// transport's retry-after-lost-reply case.
			ops = append(ops, stressOp{seq: seq, snap: lastPushSnap(ops), duplicate: true})
		default:
			seq++
			a := stat.New(4, 3)
			for k := 0; k <= r.Intn(3); k++ {
				for i := range row {
					row[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(5)-2))
				}
				if err := a.AddTimed(row, time.Duration(r.Intn(100))*time.Microsecond); err != nil {
					panic(err)
				}
			}
			ops = append(ops, stressOp{seq: seq, snap: a.Snapshot()})
		}
	}
	return ops
}

// lastPushSnap returns the snapshot of the most recent push op.
func lastPushSnap(ops []stressOp) stat.Snapshot {
	for i := len(ops) - 1; i >= 0; i-- {
		if !ops[i].touch {
			return ops[i].snap
		}
	}
	panic("no prior push")
}

func stressMeta() store.RunMeta {
	return store.RunMeta{
		SeqNum: 1, Nrow: 4, Ncol: 3, Workers: stressWorkers,
		Params: rng.DefaultParams(), Gamma: stat.DefaultConfidenceCoefficient,
		StartedAt: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
	}
}

// applyLog replays worker w's op log against eng, in order.
func applyLog(t *testing.T, eng *Collector, w int, ops []stressOp) {
	t.Helper()
	for _, op := range ops {
		if op.touch {
			if err := eng.Touch(w, 0); err != nil {
				t.Errorf("worker %d: touch: %v", w, err)
				return
			}
			continue
		}
		if err := eng.PushFrom(PushOrigin{Worker: w, Seq: op.seq}, op.snap); err != nil {
			t.Errorf("worker %d: push seq %d: %v", w, op.seq, err)
			return
		}
	}
}

// reportBits flattens a report into comparable bit patterns.
func reportBits(rep stat.Report) []uint64 {
	out := make([]uint64, 0, 4*len(rep.Mean)+8)
	out = append(out, uint64(rep.N), uint64(rep.Nrow), uint64(rep.Ncol),
		math.Float64bits(rep.MaxAbsErr), math.Float64bits(rep.MaxRelErr),
		math.Float64bits(rep.MaxVar), uint64(rep.MeanSimTime), math.Float64bits(rep.Gamma))
	for _, m := range [][]float64{rep.Mean, rep.Var, rep.AbsErr, rep.RelErr} {
		for _, v := range m {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func TestStressConcurrentPushersMatchSequentialReplay(t *testing.T) {
	logs := make([][]stressOp, stressWorkers)
	for w := range logs {
		logs[w] = stressLog(w)
	}

	// Concurrent run: one goroutine per worker plus chaos goroutines
	// calling every read/save entry point for the duration.
	eng, err := New(nil, stressMeta(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < stressWorkers; w++ {
		eng.Register(w)
	}
	var wg sync.WaitGroup
	for w := 0; w < stressWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			applyLog(t, eng, w, logs[w])
		}(w)
	}
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		chaosWG.Add(1)
		go func(i int) {
			defer chaosWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch i {
				case 0:
					if err := eng.Save(); err != nil {
						t.Errorf("save: %v", err)
						return
					}
				case 1:
					_ = eng.Progress()
					_ = eng.N()
				case 2:
					// A generous timeout: liveness churn without prunes,
					// so the replay below sees the same active set.
					if over := eng.Overdue(time.Hour); len(over) != 0 {
						t.Errorf("workers %v overdue mid-stress", over)
						return
					}
				case 3:
					_ = eng.Report()
					_ = eng.Metrics()
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	gotRep := eng.Report()
	gotM := eng.Metrics()

	// Single-threaded replay of the identical op logs, worker-major.
	ref, err := New(nil, stressMeta(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < stressWorkers; w++ {
		ref.Register(w)
	}
	for w := 0; w < stressWorkers; w++ {
		applyLog(t, ref, w, logs[w])
	}
	if t.Failed() {
		t.FailNow()
	}
	wantRep := ref.Report()
	wantM := ref.Metrics()

	if eng.N() != ref.N() {
		t.Errorf("N = %d, replay %d", eng.N(), ref.N())
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"pushes", gotM.Pushes, wantM.Pushes},
		{"merges", gotM.Merges, wantM.Merges},
		{"redeliveries", gotM.Redeliveries, wantM.Redeliveries},
		{"rejected", gotM.RejectedSnapshots, wantM.RejectedSnapshots},
		{"invalid", gotM.PushesInvalid, wantM.PushesInvalid},
		{"stale_epoch", gotM.StaleEpochPushes, wantM.StaleEpochPushes},
		{"registered", gotM.RegisteredWorkers, wantM.RegisteredWorkers},
		{"pruned", gotM.PrunedWorkers, wantM.PrunedWorkers},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, replay %d", c.name, c.got, c.want)
		}
	}

	gotBits, wantBits := reportBits(gotRep), reportBits(wantRep)
	for i := range gotBits {
		if gotBits[i] != wantBits[i] {
			t.Fatalf("report bits differ at word %d: %#x vs %#x\nconcurrent: N=%d mean[0]=%v\nreplay:     N=%d mean[0]=%v",
				i, gotBits[i], wantBits[i], gotRep.N, gotRep.Mean[0], wantRep.N, wantRep.Mean[0])
		}
	}
}

// TestStressStableMoments runs the same schedule through the
// Welford/Chan collector: the stable fold is deterministic in the same
// way, so concurrent and replayed reports must agree bit for bit.
func TestStressStableMoments(t *testing.T) {
	logs := make([][]stressOp, 8)
	for w := range logs {
		logs[w] = stressLog(w)
	}
	run := func(concurrent bool) stat.Report {
		eng, err := New(nil, stressMeta(), Config{StableMoments: true})
		if err != nil {
			t.Fatal(err)
		}
		for w := range logs {
			eng.Register(w)
		}
		if concurrent {
			var wg sync.WaitGroup
			for w := range logs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					applyLog(t, eng, w, logs[w])
				}(w)
			}
			wg.Wait()
		} else {
			for w := range logs {
				applyLog(t, eng, w, logs[w])
			}
		}
		return eng.Report()
	}
	want := run(false)
	for trial := 0; trial < 3; trial++ {
		got := run(true)
		gotBits, wantBits := reportBits(got), reportBits(want)
		for i := range gotBits {
			if gotBits[i] != wantBits[i] {
				t.Fatalf("trial %d: stable report bits differ at word %d", trial, i)
			}
		}
	}
}

// TestStressSaveUnderFire: periodic saves racing a push storm on a real
// store never tear — the saved checkpoint is always some consistent
// fold, and the final checkpoint matches the final report exactly.
func TestStressSaveUnderFire(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(st, stressMeta(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	logs := make([][]stressOp, workers)
	for w := range logs {
		logs[w] = stressLog(w)
		eng.Register(w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			applyLog(t, eng, w, logs[w])
		}(w)
	}
	stop := make(chan struct{})
	var saver sync.WaitGroup
	saver.Add(1)
	go func() {
		defer saver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := eng.Save(); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	saver.Wait()
	if t.Failed() {
		t.FailNow()
	}
	rep, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != rep.N {
		t.Fatalf("checkpoint N = %d, report N = %d", snap.N, rep.N)
	}
	total := stat.New(4, 3)
	if err := total.Merge(snap); err != nil {
		t.Fatal(err)
	}
	gotBits, wantBits := reportBits(total.Report(rep.Gamma)), reportBits(rep)
	for i := range gotBits {
		if gotBits[i] != wantBits[i] {
			t.Fatalf("checkpoint-derived report differs from Finalize at word %d", i)
		}
	}
}
