package collect_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"parmonc/internal/collect"
	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// BenchmarkCollectorPushContended measures aggregate push throughput
// with b.RunParallel hammering the engine from many goroutines at once
// — the contended counterpart of the bench ledger's collect.push_ns
// row, which the ledger does not report, and the number the sharded
// collector exists to improve: each pusher claims a worker index from
// an atomic counter, so with enough workers the pushes land on
// distinct shards and never serialize on a global lock. On a
// multi-core host the aggregate ns/op drops with the worker count.
func BenchmarkCollectorPushContended(b *testing.B) {
	for _, m := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("workers=%d", m), func(b *testing.B) {
			eng, err := collect.New(nil, store.RunMeta{
				Nrow: 1000, Ncol: 2,
				Gamma: stat.DefaultConfidenceCoefficient,
			}, collect.Config{})
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < m; w++ {
				eng.Register(w)
			}
			worker := stat.New(1000, 2)
			row := make([]float64, 2000)
			for i := range row {
				row[i] = float64(i)
			}
			if err := worker.Add(row); err != nil {
				b.Fatal(err)
			}
			snap := worker.Snapshot()
			var next atomic.Int64
			b.SetBytes(int64(16 * len(row))) // Sum + Sum2, 8 bytes each
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(next.Add(1)-1) % m
				for pb.Next() {
					if err := eng.Push(w, snap); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
