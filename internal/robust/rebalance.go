package robust

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metadata"
	"repro/internal/placement"
)

// RebalanceStats reports one rebalance pass.
type RebalanceStats struct {
	Scanned   int   // segments planned
	Planned   int   // moves the planner produced
	Moved     int   // moves that committed
	Skipped   int   // moves stale by execution time (placement changed)
	Failed    int   // moves (or segment lookups) that errored
	Bytes     int64 // share bytes migrated
	Throttled time.Duration
}

// RebalanceOnce performs one rebalance pass: plan share migrations
// for every segment against the current candidates (see
// placement.PlanSegment — lifecycle evacuation first, then zone-cap
// restoration, then per-server convergence), then execute the queue
// under the daemon's token bucket. Each move is re-validated under
// the segment's write lock before any byte moves, so a plan staled by
// a concurrent write, repair, or competing rebalancer degrades to a
// skip, never to data loss.
func (d *Daemon) RebalanceOnce(ctx context.Context) (RebalanceStats, error) {
	var stats RebalanceStats
	d.m.rebalancePasses.Inc()
	tr := d.c.obs.StartTrace("rebalance-pass", "")
	var firstErr error
	defer func() { tr.End(firstErr) }()

	cands := d.c.placementCandidates()
	var queue []placement.Move
	// Each move migrates one share of its segment's coded block size —
	// charge the bucket what actually crosses the wire, not the
	// client's configured write-path block size.
	shareBytes := map[string]int64{}
	for _, name := range d.c.meta.ListSegments() {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		seg, err := d.c.meta.LookupSegment(name)
		if err != nil {
			stats.Failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		stats.Scanned++
		shareBytes[name] = seg.Coding.BlockBytes
		queue = append(queue, placement.PlanSegment(name, seg.Placement, cands, placement.RebalancePolicy{
			MaxZoneShare: d.c.opts.MaxZoneShare,
		})...)
	}
	stats.Planned = len(queue)
	d.m.rebalanceQueueDepth.Set(float64(len(queue)))
	if tr != nil {
		tr.Stagef("plan", "segments=%d moves=%d", stats.Scanned, len(queue))
	}

	for qi, mv := range queue {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		bytes := shareBytes[mv.Segment]
		if bytes <= 0 {
			bytes = d.c.opts.BlockBytes
		}
		// One share migrates per move; charge the bucket before
		// touching data so migration bandwidth and repair bandwidth
		// draw from the same budget.
		if wait := d.bucket.take(bytes); wait > 0 {
			stats.Throttled += wait
			d.m.rebalanceThrottle.Observe(wait.Seconds())
			if err := sleepCtx(ctx, wait); err != nil {
				return stats, err
			}
		}
		moved, err := d.executeMove(ctx, mv)
		switch {
		case err != nil:
			if cerr := ctx.Err(); cerr != nil {
				return stats, cerr
			}
			d.m.rebalanceMoveErrors.Inc()
			stats.Failed++
			if firstErr == nil {
				firstErr = err
			}
		case moved:
			d.m.rebalanceMoves.Inc()
			d.m.rebalanceBytes.Add(bytes)
			stats.Moved++
			stats.Bytes += bytes
		default:
			stats.Skipped++
		}
		d.m.rebalanceQueueDepth.Set(float64(len(queue) - qi - 1))
	}
	if tr != nil {
		tr.Stagef("migrate", "moved=%d skipped=%d failed=%d throttled=%s",
			stats.Moved, stats.Skipped, stats.Failed, stats.Throttled)
	}
	return stats, firstErr
}

// executeMove migrates one share. The copy lands on the target before
// the metadata flips and the source copy is deleted only after the
// updated placement commits, so at every instant the recorded
// placement points at a stored share — a crash anywhere in the
// sequence costs at most one orphan copy, never an acked write.
// Returns moved=false (no error) when the plan is stale: the source
// no longer holds the share, or the target already does.
func (d *Daemon) executeMove(ctx context.Context, mv placement.Move) (bool, error) {
	unlock, err := d.c.meta.LockWrite(ctx, mv.Segment)
	if err != nil {
		return false, err
	}
	defer unlock()
	seg, err := d.c.meta.LookupSegment(mv.Segment)
	if err != nil {
		return false, err
	}
	if !containsIndex(seg.Placement[mv.From], mv.Index) || containsIndex(seg.Placement[mv.To], mv.Index) {
		return false, nil // plan staled by a concurrent write/repair
	}
	src, ok := d.c.store(mv.From)
	if !ok {
		return false, fmt.Errorf("robust: rebalance source %q not attached", mv.From)
	}
	dst, ok := d.c.store(mv.To)
	if !ok {
		return false, fmt.Errorf("robust: rebalance target %q not attached", mv.To)
	}
	// The share moves verbatim — CRC envelope and all — so the copy
	// needs no re-encode and readers verify the same bytes.
	payload, err := src.Get(ctx, mv.Segment, mv.Index)
	d.c.reportOutcome(mv.From, err)
	if err != nil {
		return false, fmt.Errorf("robust: rebalance read %s[%d] from %s: %w", mv.Segment, mv.Index, mv.From, err)
	}
	err = dst.Put(ctx, mv.Segment, mv.Index, payload)
	d.c.reportOutcome(mv.To, err)
	if err != nil {
		return false, fmt.Errorf("robust: rebalance write %s[%d] to %s: %w", mv.Segment, mv.Index, mv.To, err)
	}
	seg.Placement[mv.From] = removeIndex(seg.Placement[mv.From], mv.Index)
	if len(seg.Placement[mv.From]) == 0 {
		delete(seg.Placement, mv.From)
	}
	seg.Placement[mv.To] = append(seg.Placement[mv.To], mv.Index)
	if err := d.c.meta.UpdateSegment(seg); err != nil {
		return false, err
	}
	// The source copy is now unreferenced; deleting it is cleanup, not
	// correctness — a failure leaves an orphan share, nothing more.
	if err := src.Delete(ctx, mv.Segment, mv.Index); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return true, cerr
		}
	}
	return true, nil
}

// DrainStatus reports how far a server's evacuation has progressed.
type DrainStatus struct {
	Addr   string
	State  metadata.ServerState
	Shares int // shares the placement still pins to this server
}

// DrainProgress reports the lifecycle state and remaining share count
// for addr: a drain is complete when State is Draining (or Removed)
// and Shares is zero.
func (c *Client) DrainProgress(addr string) (DrainStatus, error) {
	st := DrainStatus{Addr: addr, State: metadata.ServerActive}
	for _, srv := range c.meta.Servers() {
		if srv.Addr == addr {
			st.State = srv.State.Normalize()
		}
	}
	for _, name := range c.meta.ListSegments() {
		seg, err := c.meta.LookupSegment(name)
		if err != nil {
			return st, err
		}
		st.Shares += len(seg.Placement[addr])
	}
	return st, nil
}

// containsIndex reports whether idxs contains idx.
func containsIndex(idxs []int, idx int) bool {
	for _, i := range idxs {
		if i == idx {
			return true
		}
	}
	return false
}

// removeIndex returns idxs without idx (first occurrence).
func removeIndex(idxs []int, idx int) []int {
	for i, v := range idxs {
		if v == idx {
			return append(idxs[:i], idxs[i+1:]...)
		}
	}
	return idxs
}
