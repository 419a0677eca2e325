package robust

import (
	"context"
	"fmt"
)

// Update overwrites [offset, offset+len(patch)) of a stored segment
// in place, using the coding-graph locality of the improved LT codes
// (§4.3.4): only the coded blocks whose neighbor sets intersect the
// modified original blocks are regenerated and re-put — with K=1024
// and uniform coverage that is ~0.5% of the stored data per modified
// block, not a full rewrite. A segment whose shares are in an older
// format is refused with ErrShareFormat.
func (c *Client) Update(ctx context.Context, name string, offset int64, patch []byte) error {
	if len(patch) == 0 {
		return nil
	}
	unlock, err := c.meta.LockWrite(ctx, name)
	if err != nil {
		return err
	}
	defer unlock()
	seg, sc, err := c.rangeCodec(name, offset, int64(len(patch)))
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
	encode := sc.encoder(data)
	for i, holders := range sc.affected(offset, int64(len(patch))) {
		coded, err := encode(i)
		if err != nil {
			return err
		}
		for _, addr := range holders {
			if err := ctx.Err(); err != nil {
				return err
			}
			store, ok := c.store(addr)
			if !ok {
				return fmt.Errorf("robust: update: holder %q of block %d unreachable", addr, i)
			}
			err := store.Put(ctx, name, i, coded)
			c.reportOutcome(addr, err)
			if err != nil {
				return fmt.Errorf("robust: update: block %d on %s: %w", i, addr, err)
			}
		}
	}

	// Bump the metadata version so readers can detect staleness.
	return c.meta.UpdateSegment(seg)
}

// AffectedBlocks reports how many stored coded blocks an update to
// the given byte range would rewrite — the §4.3.4 update-cost
// estimate, exposed so applications can plan update batching.
func (c *Client) AffectedBlocks(name string, offset, length int64) (int, error) {
	_, sc, err := c.rangeCodec(name, offset, length)
	if err != nil {
		return 0, err
	}
	return len(sc.affected(offset, length)), nil
}
