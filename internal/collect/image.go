package collect

import (
	"fmt"
	"sort"

	"parmonc/internal/stat"
	"parmonc/internal/store"
)

// The run image (store.Image) is the collector's one durable state:
// every save captures it once and derives the report, the results files
// and the checkpoint from that capture, so nothing written by one save
// can describe two instants. Its shards — each frozen under its own
// shard lock, the consistency the merge path keeps (a lease's done
// cursor and its shard's sums advance under one lock) — are also what a
// restarted coordinator restores (Config.Restore): float addition is
// not associative, so restarting from the folded total would change the
// reduction tree, while restoring the shards and replaying only the
// uncomputed lease remainders reproduces the fold an uninterrupted run
// performs.

// capture folds the base moments and every shard into a fresh total in
// the fixed order that makes reports deterministic: base first, then
// shards in ascending worker-index order (see internal/stat/shard.go).
// Inactive shards are included — a pruned worker's merged subtotals
// stay valid. Each shard is locked only while it folds in, so pushes to
// other shards keep flowing; when img is non-nil the shard is recorded
// into it under the same lock, so the image's shards and the fold
// describe the same instant of every shard.
func (c *Collector) capture(img *store.Image) stat.Moments {
	var total stat.Moments
	var merge func(*shard) error
	if c.cfg.StableMoments {
		st := stat.NewStable(c.meta.Nrow, c.meta.Ncol)
		total, merge = st, func(sh *shard) error { return st.MergeStable(sh.stable) }
	} else {
		raw := stat.New(c.meta.Nrow, c.meta.Ncol)
		total, merge = raw, func(sh *shard) error { return raw.MergeFrom(sh.raw) }
	}
	if err := total.MergeTrusted(c.baseSnap); err != nil {
		panic(fmt.Sprintf("collect: base moments fold: %v", err))
	}
	for _, sh := range c.shardList() {
		sh.mu.Lock()
		err := merge(sh)
		if img != nil {
			img.Shards = append(img.Shards, sh.record())
		}
		sh.mu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("collect: shard %d fold: %v", sh.worker, err))
		}
	}
	return total
}

// record copies the shard into its image form: staging moments, epoch,
// dedup cursor and lease ledger, leases in ascending ID order so two
// captures of identical state encode identically. Called with sh.mu
// held.
func (sh *shard) record() store.ShardRecord {
	rec := store.ShardRecord{Worker: sh.worker, Epoch: sh.epoch, LastSeq: sh.lastSeq}
	if sh.raw != nil {
		rec.Snap = sh.raw.Snapshot()
	} else {
		rec.Snap = sh.stable.Snapshot()
	}
	for id, ls := range sh.leases {
		rec.Leases = append(rec.Leases, store.LeaseLedgerEntry{
			ID:        id,
			Proc:      ls.lease.Proc,
			Start:     ls.lease.Start,
			Count:     ls.lease.Count,
			Done:      ls.done,
			Completed: ls.completed,
			Revoked:   ls.revoked,
		})
	}
	sort.Slice(rec.Leases, func(i, j int) bool { return rec.Leases[i].ID < rec.Leases[j].ID })
	return rec
}

// image captures the collector's run image and returns it with the
// live fold it was built from (which the save reports from).
func (c *Collector) image() (store.Image, stat.Moments) {
	img := store.Image{Meta: c.stampedMeta(), Base: c.baseSnap}
	total := c.capture(&img)
	img.Fold = total.Snapshot()
	if st, ok := total.(*stat.StableAccumulator); ok {
		cen := st.Centered()
		img.Centered = &cen
	}
	return img, total
}

// Image captures the run image a save would write now: metadata, base
// moments, every shard, and their fold.
func (c *Collector) Image() store.Image {
	img, _ := c.image()
	return img
}

// restoreFrom rebuilds the shard map from a run image. Called from
// New before the collector is shared, so no locking is needed. Every
// restored shard starts inactive (its worker session died with the
// previous incarnation) and every incomplete lease is marked revoked:
// a zombie push against a pre-crash grant must fence, and the
// coordinator reissues the uncomputed remainders under fresh IDs.
func (c *Collector) restoreFrom(rs *store.Image) error {
	if rs.Meta.Nrow != c.meta.Nrow || rs.Meta.Ncol != c.meta.Ncol {
		return fmt.Errorf("collect: run image is %d×%d, this run is %d×%d",
			rs.Meta.Nrow, rs.Meta.Ncol, c.meta.Nrow, c.meta.Ncol)
	}
	if rs.Meta.SeqNum != c.meta.SeqNum {
		return fmt.Errorf("collect: run image is for experiments subsequence %d, this run uses %d",
			rs.Meta.SeqNum, c.meta.SeqNum)
	}
	var restored int64
	for _, rec := range rs.Shards {
		if _, dup := c.shards[rec.Worker]; dup {
			return fmt.Errorf("collect: run image repeats worker %d", rec.Worker)
		}
		acc, err := stat.FromSnapshot(rec.Snap)
		if err != nil {
			return fmt.Errorf("collect: restoring shard %d: %w", rec.Worker, err)
		}
		sh := &shard{
			worker:  rec.Worker,
			epoch:   rec.Epoch,
			lastSeq: rec.LastSeq,
			raw:     acc,
			leases:  map[uint64]*leaseState{},
		}
		for _, le := range rec.Leases {
			if _, dup := c.leaseIdx[le.ID]; dup {
				return fmt.Errorf("collect: run image repeats lease %d", le.ID)
			}
			sh.leases[le.ID] = &leaseState{
				lease:     Lease{ID: le.ID, Proc: le.Proc, Start: le.Start, Count: le.Count},
				epoch:     rec.Epoch,
				done:      le.Done,
				completed: le.Completed,
				revoked:   le.Revoked || !le.Completed,
			}
			c.leaseIdx[le.ID] = rec.Worker
		}
		c.shards[rec.Worker] = sh
		restored += rec.Snap.N
	}
	c.samples.Store(restored)
	return nil
}
