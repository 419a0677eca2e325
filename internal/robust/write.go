package robust

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Write stores data as an erasure-coded segment, speculatively and
// ratelessly (§4.3.2): every server absorbs freshly generated coded
// blocks at its own pace until N = (1+D)·K blocks have committed
// globally, at which point remaining work is canceled. servers
// selects the target set; nil means all attached backends. With
// ChunkBytes set the segment is written as independent chunks, else as
// one — Write is a slicing caller of the same streaming core WriteFrom
// pipelines a reader through.
func (c *Client) Write(ctx context.Context, name string, data []byte, servers []string) (WriteStats, error) {
	chunk := c.opts.ChunkBytes
	off := 0
	next := func() ([]byte, error) {
		if off >= len(data) {
			return nil, io.EOF
		}
		end := len(data)
		if chunk > 0 && int64(end-off) > chunk {
			end = off + int(chunk)
		}
		piece := data[off:end]
		off = end
		return piece, nil
	}
	return c.writeSegment(ctx, name, int64(len(data)), next, nil, servers)
}

// degradedBlocks is the degraded-commit floor ceil((1+degradedFloor)·K).
func degradedBlocks(k int) int {
	return int(math.Ceil((1 + degradedFloor) * float64(k)))
}

func countPlacement(p map[string][]int) map[string]int {
	out := make(map[string]int, len(p))
	for addr, idx := range p {
		out[addr] = len(idx)
	}
	return out
}

// Delete removes a segment's blocks from every holder, then drops its
// metadata. Block deletions that fail, or that cannot reach a holder,
// are reported with errors.Join but do not abort the operation.
func (c *Client) Delete(ctx context.Context, name string) error {
	unlock, err := c.meta.LockWrite(ctx, name)
	if err != nil {
		return err
	}
	defer unlock()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return err
	}
	derr := c.deletePlacement(ctx, name, seg.Placement)
	if err := c.meta.DeleteSegment(name); err != nil {
		return err
	}
	return derr
}

// deletePlacement removes every block of a placement — one batch
// delete per server, all servers in parallel — and joins the failures,
// a detached holder's included.
func (c *Client) deletePlacement(ctx context.Context, name string, placed map[string][]int) error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for addr, indices := range placed {
		store, ok := c.store(addr)
		if !ok {
			fail(fmt.Errorf("robust: server %q unreachable during delete", addr))
			continue
		}
		wg.Add(1)
		go func(store backend, indices []int) {
			defer wg.Done()
			if err := errors.Join(store.DeleteBatch(ctx, name, indices)...); err != nil {
				fail(err)
			}
		}(store, indices)
	}
	wg.Wait()
	return errors.Join(errs...)
}
