package robust

import (
	"context"

	"repro/internal/blockstore"
)

// backend is the one interface the data paths speak to a store
// through: a run of coded blocks goes out as one streaming put, a run
// of shares comes back as one streaming get, and a server's blocks of
// a segment go away in one batch delete. transport.Client
// has exactly these methods; AttachStore wraps any other store in a
// localBackend.
//
// The streaming contracts are transport.Client's: PutStream calls
// acked exactly once per entry, or returns an error without calling it
// at all; GetStream calls deliver exactly once per index, possibly
// from several goroutines.
type backend interface {
	blockstore.Store
	PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error
	GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error
	DeleteBatch(ctx context.Context, segment string, indices []int) []error
}

// asBackend returns store itself when it streams, else a localBackend
// over it, and whether the store moves many blocks per call. On a
// store that moves one block per call a long run gains nothing and is
// served serially, keeping its blocks from other servers' workers.
func asBackend(store blockstore.Store) (backend, bool) {
	if be, ok := store.(backend); ok {
		return be, true
	}
	_, batches := store.(blockstore.Batcher)
	return localBackend{store}, batches
}

// localBackend gives a store without the streaming methods the backend
// interface: puts and deletes move many blocks through its
// blockstore.Batcher methods when it has them, else block by block.
type localBackend struct{ blockstore.Store }

func (l localBackend) PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	if b, ok := l.Store.(blockstore.Batcher); ok && len(puts) > 1 {
		for i, err := range b.PutBatch(ctx, segment, puts) {
			acked(i, err)
		}
		return nil
	}
	for i, p := range puts {
		err := ctx.Err()
		if err == nil {
			err = l.Put(ctx, segment, p.Index, p.Data)
		}
		acked(i, err)
	}
	return nil
}

// GetStream serves a run block by block, even from a Batcher: each
// share reaches deliver as soon as it is read, and an in-process Get
// costs no more than its entry in a batch.
func (l localBackend) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	for _, idx := range indices {
		data, err := []byte(nil), ctx.Err()
		if err == nil {
			data, err = l.Get(ctx, segment, idx)
		}
		deliver(idx, data, err)
	}
	return nil
}

func (l localBackend) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	if b, ok := l.Store.(blockstore.Batcher); ok && len(indices) > 1 {
		return b.DeleteBatch(ctx, segment, indices)
	}
	errs := make([]error, len(indices))
	for i, idx := range indices {
		if errs[i] = ctx.Err(); errs[i] == nil {
			errs[i] = l.Delete(ctx, segment, idx)
		}
	}
	return errs
}

// Scrub forwards to the store when it can verify in place.
func (l localBackend) Scrub(ctx context.Context, segment string) ([]int, error) {
	if sc, ok := l.Store.(blockstore.Scrubber); ok {
		return sc.Scrub(ctx, segment)
	}
	return nil, blockstore.ErrScrubUnsupported
}
