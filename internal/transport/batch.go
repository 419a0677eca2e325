package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/blockstore"
)

// Client implements blockstore.Batcher. PutBatch and GetBatch collect
// the results of one PutStream or GetStream; DeleteBatch is a wire op
// of its own, many indices per round trip with per-index statuses.
var _ blockstore.Batcher = (*Client)(nil)

// maxBatchEntries bounds the indices packed into one DELETEBATCH, so a
// huge logical batch still yields requests a server can buffer.
const maxBatchEntries = 512

// batchEntryError maps one result entry onto an error.
func batchEntryError(status byte, msg []byte) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return blockstore.ErrNotFound
	default:
		return fmt.Errorf("transport: batch entry failed: %s", msg)
	}
}

// fillErrs sets every unset slot of errs to err.
func fillErrs(errs []error, err error) []error {
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
	return errs
}

// PutBatch implements blockstore.Batcher over one PutStream, returning
// each entry's outcome.
func (c *Client) PutBatch(ctx context.Context, segment string, puts []blockstore.BatchPut) []error {
	errs := make([]error, len(puts))
	if err := c.PutStream(ctx, segment, puts, func(i int, err error) { errs[i] = err }); err != nil {
		fillErrs(errs, err)
	}
	return errs
}

// GetBatch implements blockstore.Batcher over one GetStream.
func (c *Client) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	datas := make([][]byte, len(indices))
	errs := make([]error, len(indices))
	pos := make(map[int][]int, len(indices))
	for i, idx := range indices {
		pos[idx] = append(pos[idx], i)
	}
	// deliver runs concurrently, once per index; each call claims one
	// of the slots its index occupies.
	var mu sync.Mutex
	c.GetStream(ctx, segment, indices, func(idx int, data []byte, err error) {
		mu.Lock()
		i := pos[idx][0]
		pos[idx] = pos[idx][1:]
		mu.Unlock()
		datas[i], errs[i] = data, err
	})
	return datas, errs
}

// DeleteBatch implements blockstore.Batcher. Deletes are idempotent
// and retry like single deletes.
func (c *Client) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	errs := make([]error, len(indices))
	for start := 0; start < len(indices); start += maxBatchEntries {
		if cerr := ctx.Err(); cerr != nil {
			fillErrs(errs[start:], cerr)
			break
		}
		end := min(start+maxBatchEntries, len(indices))
		c.deleteBatchWire(ctx, segment, indices[start:end], errs[start:end])
	}
	return errs
}

// deleteBatchWire sends one DELETEBATCH request (payload = the index
// list) and fills errs per entry.
func (c *Client) deleteBatchWire(ctx context.Context, segment string, indices []int, errs []error) {
	if err := checkRequestHeader(segment, 0); err != nil {
		fillErrs(errs, err)
		return
	}
	for _, idx := range indices {
		if idx < 0 {
			fillErrs(errs, fmt.Errorf("transport: negative block index"))
			return
		}
	}
	scratch := getScratch()
	defer putScratch(scratch)
	*scratch = appendRequestHeader(*scratch, opDeleteBatch, segment, len(indices))
	for _, idx := range indices {
		*scratch = binary.BigEndian.AppendUint32(*scratch, uint32(idx))
	}
	status, payload, err := c.exchangeIdem(ctx, [][]byte{*scratch})
	if err != nil {
		fillErrs(errs, err)
		return
	}
	c.finishBatch(indices, errs, status, payload)
}

// finishBatch parses one DELETEBATCH response and distributes the
// per-entry results in request order.
func (c *Client) finishBatch(indices []int, errs []error, status byte, payload []byte) {
	if status != statusOK {
		fillErrs(errs, statusToError(status, payload))
		return
	}
	results, err := decodeBatchResults(payload)
	if err != nil {
		fillErrs(errs, fmt.Errorf("transport: malformed batch response: %w", err))
		return
	}
	if len(results) != len(indices) {
		fillErrs(errs, fmt.Errorf("transport: malformed batch response (%d/%d entries)",
			len(results), len(indices)))
		return
	}
	for i, res := range results {
		if res.index != indices[i] {
			errs[i] = fmt.Errorf("transport: batch response index %d, want %d", res.index, indices[i])
			continue
		}
		errs[i] = batchEntryError(res.status, res.bytes)
	}
}
