package blockstore

import "context"

// Batch paths for the local stores. MemStore's PutBatch crosses its
// lock once per batch and copies every entry into a single backing
// allocation — the difference between ~1 allocation per block and ~1
// per batch on the steady-state write path; its gets and deletes go
// entry by entry. ChecksumStore checks each entry's envelope header and
// delegates puts and deletes to its inner store's batch path when it
// has one.

var (
	_ Batcher = (*MemStore)(nil)
	_ Batcher = (*ChecksumStore)(nil)
)

// PutBatch implements Batcher with one lock crossing and one backing
// allocation for all entries.
func (s *MemStore) PutBatch(ctx context.Context, segment string, puts []BatchPut) []error {
	errs := make([]error, len(puts))
	var total int
	ok := false
	for i, p := range puts {
		if errs[i] = validate(segment, p.Index); errs[i] == nil {
			total += len(p.Data)
			ok = true
		}
	}
	if !ok {
		return errs
	}
	if err := ctx.Err(); err != nil {
		return fillBatchErrs(errs, err)
	}
	backing := make([]byte, 0, total)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fillBatchErrs(errs, ErrClosed)
	}
	seg := s.segments[segment]
	if seg == nil {
		seg = make(map[int][]byte, len(puts))
		s.segments[segment] = seg
	}
	for i, p := range puts {
		if errs[i] != nil {
			continue
		}
		off := len(backing)
		backing = append(backing, p.Data...)
		cp := backing[off:len(backing):len(backing)]
		if old, okOld := seg[p.Index]; okOld {
			s.bytes -= int64(len(old))
		}
		seg[p.Index] = cp
		s.bytes += int64(len(cp))
	}
	return errs
}

// GetBatch implements Batcher entry by entry.
func (s *MemStore) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	return getEach(ctx, s, segment, indices)
}

// DeleteBatch implements Batcher entry by entry.
func (s *MemStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	return eachEntry(ctx, len(indices), func(i int) error { return s.Delete(ctx, segment, indices[i]) })
}

// PutBatch implements Batcher: a batch of sealed shares goes to the
// inner fast path when there is one; otherwise each entry is Put alone,
// so only the entries that are not sealed shares fail.
func (s *ChecksumStore) PutBatch(ctx context.Context, segment string, puts []BatchPut) []error {
	bs, batches := s.Store.(Batcher)
	for _, p := range puts {
		batches = batches && checkShareHeader(p.Data) == nil
	}
	if batches {
		return bs.PutBatch(ctx, segment, puts)
	}
	return eachEntry(ctx, len(puts), func(i int) error { return s.Put(ctx, segment, puts[i].Index, puts[i].Data) })
}

// GetBatch implements Batcher entry by entry.
func (s *ChecksumStore) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	return getEach(ctx, s, segment, indices)
}

// DeleteBatch implements Batcher.
func (s *ChecksumStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	if bs, ok := s.Store.(Batcher); ok {
		return bs.DeleteBatch(ctx, segment, indices)
	}
	return eachEntry(ctx, len(indices), func(i int) error { return s.Delete(ctx, segment, indices[i]) })
}

// getEach implements GetBatch over s.Get: gets are not on the hot path
// (reads stream shares one Get at a time), so no store needs a batch
// fast path for them.
func getEach(ctx context.Context, s Store, segment string, indices []int) ([][]byte, []error) {
	datas := make([][]byte, len(indices))
	return datas, eachEntry(ctx, len(indices), func(i int) (err error) {
		datas[i], err = s.Get(ctx, segment, indices[i])
		return err
	})
}

// eachEntry runs op on entries 0..n-1 of a batch in order and returns
// their errors; once ctx is done, the remaining entries fail with its
// error.
func eachEntry(ctx context.Context, n int, op func(i int) error) []error {
	errs := make([]error, n)
	for i := range errs {
		if errs[i] = ctx.Err(); errs[i] == nil {
			errs[i] = op(i)
		}
	}
	return errs
}

// fillBatchErrs sets every unset slot to err.
func fillBatchErrs(errs []error, err error) []error {
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
	return errs
}
