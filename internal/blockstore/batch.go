package blockstore

import "context"

// Batch fast paths for the local stores. MemStore crosses its lock
// once per batch and copies every entry into a single backing
// allocation — the difference between ~1 allocation per block and ~1
// per batch on the steady-state write path. ChecksumStore seals a
// whole batch into one pooled backing buffer and delegates to its inner
// store's fast path when it has one.

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

// GetBatch implements Batcher with one lock crossing.
func (s *MemStore) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	datas := make([][]byte, len(indices))
	errs := make([]error, len(indices))
	if err := ctx.Err(); err != nil {
		return datas, fillBatchErrs(errs, err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return datas, fillBatchErrs(errs, ErrClosed)
	}
	seg := s.segments[segment]
	for i, idx := range indices {
		if errs[i] = validate(segment, idx); errs[i] != nil {
			continue
		}
		if b, ok := seg[idx]; ok {
			datas[i] = b
		} else {
			errs[i] = ErrNotFound
		}
	}
	return datas, errs
}

// DeleteBatch implements Batcher with one lock crossing.
func (s *MemStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	errs := make([]error, len(indices))
	if err := ctx.Err(); err != nil {
		return fillBatchErrs(errs, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fillBatchErrs(errs, ErrClosed)
	}
	for i, idx := range indices {
		if errs[i] = validate(segment, idx); errs[i] != nil {
			continue
		}
		if b, ok := s.segments[segment][idx]; ok {
			s.bytes -= int64(len(b))
			delete(s.segments[segment], idx)
		}
	}
	if len(s.segments[segment]) == 0 {
		delete(s.segments, segment)
	}
	return errs
}

// PutBatch implements Batcher: all entries are sealed into one pooled
// backing buffer, then stored through the inner fast path when the
// inner store has one.
func (s *ChecksumStore) PutBatch(ctx context.Context, segment string, puts []BatchPut) []error {
	var total int
	for _, p := range puts {
		total += 8 + len(p.Data)
	}
	buf := sealPool.Get().(*[]byte)
	defer sealPool.Put(buf)
	backing := sealBuf(buf, total)
	sealed := make([]BatchPut, len(puts))
	for i, p := range puts {
		off := len(backing)
		backing = appendSeal(backing, p.Data)
		sealed[i] = BatchPut{Index: p.Index, Data: backing[off:len(backing):len(backing)]}
	}
	if bs, ok := s.inner.(Batcher); ok {
		return bs.PutBatch(ctx, segment, sealed)
	}
	errs := make([]error, len(sealed))
	for i, p := range sealed {
		if cerr := ctx.Err(); cerr != nil {
			errs[i] = cerr
			continue
		}
		errs[i] = s.inner.Put(ctx, segment, p.Index, p.Data)
	}
	return errs
}

// GetBatch implements Batcher, verifying each entry's integrity.
func (s *ChecksumStore) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	var datas [][]byte
	var errs []error
	if bs, ok := s.inner.(Batcher); ok {
		datas, errs = bs.GetBatch(ctx, segment, indices)
	} else {
		datas = make([][]byte, len(indices))
		errs = make([]error, len(indices))
		for i, idx := range indices {
			if cerr := ctx.Err(); cerr != nil {
				errs[i] = cerr
				continue
			}
			datas[i], errs[i] = s.inner.Get(ctx, segment, idx)
		}
	}
	for i := range datas {
		if errs[i] != nil {
			datas[i] = nil
			continue
		}
		datas[i], errs[i] = open(datas[i])
	}
	return datas, errs
}

// DeleteBatch implements Batcher.
func (s *ChecksumStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	if bs, ok := s.inner.(Batcher); ok {
		return bs.DeleteBatch(ctx, segment, indices)
	}
	errs := make([]error, len(indices))
	for i, idx := range indices {
		if cerr := ctx.Err(); cerr != nil {
			errs[i] = cerr
			continue
		}
		errs[i] = s.inner.Delete(ctx, segment, idx)
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
