package stat

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the two functions on the collector's push hot
// path: every push validates its snapshot once and then folds it into a
// shard accumulator, so per-element costs here multiply directly into
// collector throughput (see BenchmarkCollectorPushContended in
// internal/collect). The 1000×2 shape matches that benchmark's run
// geometry.

func benchSnapshot() Snapshot {
	a := New(1000, 2)
	row := make([]float64, 1000*2)
	for i := range row {
		row[i] = float64(i)
	}
	if err := a.Add(row); err != nil {
		panic(err)
	}
	return a.Snapshot()
}

func BenchmarkSnapshotValidate(b *testing.B) {
	s := benchSnapshot()
	b.SetBytes(int64(16 * len(s.Sum)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorMerge measures the collector-side cost of one
// subtotal merge at the paper's matrix size (1000×2) — the quantity that
// bounds how often workers can push (the ≈120 KB message of Sec. 4).
func BenchmarkCollectorMerge(b *testing.B) {
	total := New(1000, 2)
	worker := New(1000, 2)
	row := make([]float64, 2000)
	for i := range row {
		row[i] = float64(i)
	}
	if err := worker.Add(row); err != nil {
		b.Fatal(err)
	}
	snap := worker.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := total.Merge(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulatorMergeTrusted(b *testing.B) {
	s := benchSnapshot()
	a := New(1000, 2)
	b.SetBytes(int64(16 * len(s.Sum)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.MergeTrusted(s); err != nil {
			b.Fatal(err)
		}
	}
}

// The two ways a worker can hand its subtotal to the collector, at the
// shapes of the ledger's strict workloads (pi is 1×1, density.strict is
// 1×2000). View is what the exchange pushes: no allocation and no copy
// at either width. Snapshot is what checkpoints and recovery images
// take: two allocations and a copy that grow with the matrix.

var benchSink Snapshot

func BenchmarkAccumulatorHandOff(b *testing.B) {
	for _, ncol := range []int{1, 2000} {
		a := New(1, ncol)
		for _, how := range []struct {
			name string
			take func() Snapshot
		}{{"View", a.View}, {"Snapshot", a.Snapshot}} {
			b.Run(fmt.Sprintf("%s/1x%d", how.name, ncol), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = how.take()
				}
			})
		}
	}
}
