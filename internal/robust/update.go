package robust

import (
	"context"
	"fmt"
	"sort"
)

// Update overwrites [offset, offset+len(patch)) of a stored segment
// in place, using the coding-graph locality of the improved LT codes
// (§4.3.4): only the coded blocks whose neighbor sets intersect the
// modified original blocks are regenerated and re-put — with K=1024
// and uniform coverage that is ~0.5% of the stored data per modified
// block, not a full rewrite. The one exception is a record whose shares
// predate sealing (ShareCRC=false): Update rewrites all of them sealed.
func (c *Client) Update(ctx context.Context, name string, offset int64, patch []byte) error {
	if len(patch) == 0 {
		return nil
	}
	unlock, err := c.meta.LockWrite(ctx, name)
	if err != nil {
		return err
	}
	defer unlock()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return err
	}
	if err := checkRange(offset, int64(len(patch)), seg.Size); err != nil {
		return err
	}
	sc, err := c.segmentCodec(seg)
	if err != nil {
		return err
	}

	// Read-modify-write: reconstruct, patch, re-encode the affected
	// coded blocks only.
	data, _, err := c.readLocked(ctx, name)
	if err != nil {
		return fmt.Errorf("robust: update read: %w", err)
	}
	copy(data[offset:], patch)
	holders := sc.affected(offset, int64(len(patch)))
	if !seg.Coding.ShareCRC {
		// The record predates sealed shares: rewrite every share
		// sealed, and record that it is.
		holders = holdersOf(seg.Placement, everyShare)
		seg.Coding.ShareCRC = true
	}
	if err := c.putShares(ctx, name, holders, sc.encoder(data)); err != nil {
		return fmt.Errorf("robust: update: %w", err)
	}

	// Bump the metadata version so readers can detect staleness.
	return c.meta.UpdateSegment(seg)
}

// putShares regenerates each share of holders with encode and writes it
// to every holder listed for it, in index order, stopping at the first
// holder that is detached or refuses the share.
func (c *Client) putShares(ctx context.Context, name string, holders map[int][]string, encode func(int) ([]byte, error)) error {
	order := make([]int, 0, len(holders))
	for i := range holders {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		coded, err := encode(i)
		if err != nil {
			return err
		}
		for _, addr := range holders[i] {
			if err := ctx.Err(); err != nil {
				return err
			}
			store, ok := c.store(addr)
			if !ok {
				return fmt.Errorf("holder %q of block %d unreachable", addr, i)
			}
			err := store.Put(ctx, name, i, coded)
			c.reportOutcome(addr, err)
			if err != nil {
				return fmt.Errorf("block %d on %s: %w", i, addr, err)
			}
		}
	}
	return nil
}

// AffectedBlocks reports how many stored coded blocks an update to
// the given byte range would rewrite — the §4.3.4 update-cost
// estimate, exposed so applications can plan update batching.
func (c *Client) AffectedBlocks(name string, offset, length int64) (int, error) {
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return 0, err
	}
	if err := checkRange(offset, length, seg.Size); err != nil {
		return 0, err
	}
	sc, err := c.segmentCodec(seg)
	if err != nil {
		return 0, err
	}
	return len(sc.affected(offset, length)), nil
}
