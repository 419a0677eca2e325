package robust

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/blockstore"
	"repro/internal/ltcode"
	"repro/internal/metadata"
	"repro/internal/placement"
)

// HealthReport describes a segment's redundancy state.
type HealthReport struct {
	Name      string
	K, N      int
	Reachable int      // blocks on currently attached servers
	Missing   int      // blocks whose holders are detached or that lost the block
	Decodable bool     // whether a read would currently succeed
	DeadAddrs []string // placement holders that are not attached
	CheckedAt time.Time
}

// Health audits a segment: which placed blocks are still reachable
// (holder attached and block present) and whether the survivors
// decode. It reads no payload data — only block listings.
func (c *Client) Health(ctx context.Context, name string) (HealthReport, error) {
	c.m.healthChecks.Inc()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return HealthReport{}, err
	}
	sc, err := c.segmentCodec(seg)
	if err != nil {
		return HealthReport{}, err
	}
	rep := HealthReport{Name: name, K: seg.Coding.K, N: seg.Coding.N, CheckedAt: time.Now()}
	holders, err := c.survey(ctx, seg, false)
	if err != nil {
		return HealthReport{}, err
	}
	// One symbolic decoder per chunk: the segment is readable only if
	// every chunk's graph decodes from its reachable shares.
	decs := sc.decoders(ltcode.NewSymbolicDecoder)
	for _, h := range holders {
		if !h.up {
			rep.DeadAddrs = append(rep.DeadAddrs, h.addr)
		}
		rep.Reachable += len(h.live)
		rep.Missing += len(h.lost)
		for _, i := range h.live {
			if ci, local, ok := sc.locate(i); ok {
				decs[ci].Add(local)
			}
		}
	}
	// Finish each chunk the way Read does, so Decodable is true exactly
	// when a read of the surviving shares would decode.
	rep.Decodable = true
	for _, dec := range decs {
		rep.Decodable = rep.Decodable && dec.Solve()
	}
	return rep, nil
}

// holderReport is what a survey found on one placement holder: its
// placed indices sorted by state.
type holderReport struct {
	addr    string
	up      bool  // attached, and answered its listing (and scrub)
	live    []int // present (and, when scrubbed, intact)
	lost    []int // absent, or held by a holder that is not up
	corrupt []int // failed the holder's integrity scrub
}

// survey lists every placement holder of seg, in address order — and,
// with scrub, has each one that can verify its shares in place do so.
// Only a record in the current share format is scrubbed: a scrub would
// condemn every share of an older one.
// Health, Repair and Audit derive their reports from it; no payload
// data moves. Only a canceled ctx fails the survey: a holder that is
// detached or fails its listing or scrub is reported down.
func (c *Client) survey(ctx context.Context, seg metadata.Segment, scrub bool) ([]holderReport, error) {
	addrs := make([]string, 0, len(seg.Placement))
	for addr := range seg.Placement {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	out := make([]holderReport, 0, len(addrs))
	for _, addr := range addrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		placed := seg.Placement[addr]
		store, ok := c.store(addr)
		var present, bad []int
		var err error
		if ok {
			present, err = store.List(ctx, seg.Name)
			if scrubber, canScrub := store.(blockstore.Scrubber); err == nil && scrub && seg.Coding.ShareFormat == blockstore.ShareFormat && canScrub {
				if bad, err = scrubber.Scrub(ctx, seg.Name); errors.Is(err, blockstore.ErrScrubUnsupported) {
					err = nil
				}
			}
			c.reportOutcome(addr, err)
		}
		if !ok || err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			out = append(out, holderReport{addr: addr, lost: placed})
			continue
		}
		have := make(map[int]bool, len(present))
		for _, i := range present {
			have[i] = true
		}
		corrupt := make(map[int]bool, len(bad))
		for _, i := range bad {
			corrupt[i] = true
		}
		h := holderReport{addr: addr, up: true}
		for _, i := range placed {
			switch {
			case corrupt[i]:
				h.corrupt = append(h.corrupt, i)
			case have[i]:
				h.live = append(h.live, i)
			default:
				h.lost = append(h.lost, i)
			}
		}
		out = append(out, h)
	}
	return out, nil
}

// RepairStats reports one repair pass.
type RepairStats struct {
	Regenerated int // blocks created on healthy servers (re-placed + top-up)
	Pruned      int // placement entries dropped (dead holders)
	// Promoted reports that the segment was below its commit target N
	// (a degraded write, or attrition) and this pass topped it back up
	// to full redundancy, clearing the Degraded mark.
	Promoted bool
	Duration time.Duration
}

// Repair restores a segment's redundancy after server loss or block
// corruption: it reconstructs the data from the surviving blocks,
// regenerates the unreachable coded blocks (same graph indices), and
// re-places them on healthy attached servers, updating the placement.
// A segment holding fewer than N blocks — a degraded-mode commit, or
// cumulative attrition — is promoted back to full redundancy with
// fresh graph indices and its Degraded mark cleared. A record in an
// older share format first has its live shares upgraded in place. Data
// is decoded only to regenerate a block, and Repair fails with
// ErrUnrecoverable if it cannot be.
func (c *Client) Repair(ctx context.Context, name string) (stats RepairStats, err error) {
	start := time.Now()
	tr := c.obs.StartTrace("repair", name)
	defer func() {
		c.m.repairs.Inc()
		c.m.repairRegenerated.Add(int64(stats.Regenerated))
		c.m.repairPruned.Add(int64(stats.Pruned))
		if stats.Promoted {
			c.m.repairPromoted.Inc()
		}
		c.m.repairLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			c.m.repairErrors.Inc()
		}
		tr.End(err)
	}()
	unlock, err := c.meta.LockWrite(ctx, name)
	if err != nil {
		return RepairStats{}, err
	}
	defer unlock()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return RepairStats{}, err
	}
	sc, err := c.segmentCodec(seg)
	if err != nil {
		return RepairStats{}, err
	}
	var regenerate func(int) ([]byte, error)
	encode := func(idx int) ([]byte, error) {
		if regenerate == nil { // the first block to regenerate
			data, _, err := c.readLocked(ctx, name)
			if err != nil {
				return nil, fmt.Errorf("robust: repair read: %w", err)
			}
			regenerate = sc.encoder(data)
		}
		return regenerate(idx)
	}

	// Determine which placed blocks are gone and which remain.
	holders, err := c.survey(ctx, seg, false)
	if err != nil {
		return stats, err
	}
	if seg.Coding.ShareFormat != blockstore.ShareFormat {
		if err := c.upgradeShares(ctx, seg, holders); err != nil {
			return stats, fmt.Errorf("robust: repair upgrade: %w", err)
		}
		// Recorded now: a regeneration's read refuses other formats.
		seg.Coding.ShareFormat = blockstore.ShareFormat
		if err := c.meta.UpdateSegment(seg); err != nil {
			return stats, err
		}
	}
	newPlacement := make(map[string][]int)
	var lost []int
	for _, h := range holders {
		if len(h.live) > 0 {
			newPlacement[h.addr] = h.live
		}
		lost = append(lost, h.lost...)
	}
	stats.Pruned = len(lost)
	sort.Ints(lost)
	if tr != nil {
		tr.Stagef("audit", "lost=%d pruned=%d", len(lost), stats.Pruned)
	}

	// Re-place lost blocks round-robin through the placement manager:
	// the target list is the degrade ladder's admitted tier (Draining
	// and Removed servers excluded, failure-detector-Down ones last),
	// zone-interleaved so regenerated shares restore failure-domain
	// diversity instead of piling onto whichever server sorts first.
	sel, err := c.placementSelect(placement.Policy{
		SpreadZones: true,
		Seed:        seg.Coding.GraphSeed,
	})
	if err != nil {
		return stats, ErrNoServers
	}
	healthy := sel.Servers
	hi := 0
	place := func(idx int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		coded, err := encode(idx)
		if err != nil {
			return err
		}
		for attempts := 0; attempts < len(healthy); attempts++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			addr := healthy[hi%len(healthy)]
			hi++
			store, ok := c.store(addr)
			if !ok {
				continue
			}
			err := store.Put(ctx, name, idx, coded)
			c.reportOutcome(addr, err)
			if err != nil {
				continue
			}
			newPlacement[addr] = append(newPlacement[addr], idx)
			stats.Regenerated++
			return nil
		}
		return fmt.Errorf("robust: repair could not re-place block %d", idx)
	}
	for _, idx := range lost {
		if err := place(idx); err != nil {
			return stats, err
		}
	}

	// Promotion: a degraded commit (or cumulative attrition) leaves a
	// chunk holding fewer than its N blocks even after every originally
	// placed block is restored. Top up each short chunk with fresh,
	// unused indices from its own graph until its target holds again.
	totals := make([]int, len(sc.chunks))
	used := make(map[int]bool)
	for _, indices := range newPlacement {
		for _, i := range indices {
			used[i] = true
			if ci, _, ok := sc.locate(i); ok {
				totals[ci]++
			}
		}
	}
	added := 0
	for ci, v := range sc.chunks {
		if totals[ci] >= v.n {
			continue
		}
		for local := 0; local < v.graph.N && totals[ci] < v.n; local++ {
			idx := v.base + local
			if used[idx] {
				continue
			}
			if err := place(idx); err != nil {
				return stats, err
			}
			totals[ci]++
			added++
		}
		if totals[ci] < v.n {
			return stats, fmt.Errorf("robust: repair exhausted the coding graph at %d of %d blocks", totals[ci], v.n)
		}
		stats.Promoted = true
	}
	if stats.Promoted && tr != nil {
		tr.Stagef("promote", "topped-up=%d", added)
	}
	if stats.Promoted || seg.Degraded {
		seg.Degraded = false
	}

	if tr != nil {
		tr.Stagef("re-place", "regenerated=%d promoted=%v", stats.Regenerated, stats.Promoted)
	}
	seg.Placement = newPlacement
	if err := c.meta.UpdateSegment(seg); err != nil {
		return stats, err
	}
	tr.Stage("metadata")
	stats.Duration = time.Since(start)
	return stats, nil
}

// upgradeShares reseals each live share of seg in the current format,
// in place on its holder (Get, UpgradeShare, Put), decoding nothing.
// Current shares are kept, so an upgrade cut short finishes on the next
// repair; a share that does not upgrade is left for a scrub to report.
func (c *Client) upgradeShares(ctx context.Context, seg metadata.Segment, holders []holderReport) error {
	for _, h := range holders {
		store, ok := c.store(h.addr)
		if !ok && len(h.live) > 0 {
			return fmt.Errorf("holder %q detached", h.addr)
		}
		for _, i := range h.live {
			if err := ctx.Err(); err != nil {
				return err
			}
			stored, err := store.Get(ctx, seg.Name, i)
			if err == nil {
				share, changed := blockstore.UpgradeShare(stored, seg.Coding.BlockBytes, seg.Name, i)
				if !changed {
					continue
				}
				err = store.Put(ctx, seg.Name, i, share)
			}
			c.reportOutcome(h.addr, err)
			if err != nil {
				return fmt.Errorf("block %d on %s: %w", i, h.addr, err)
			}
		}
	}
	return nil
}
