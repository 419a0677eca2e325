package blockstore

import (
	"context"
	"errors"
)

// ErrCorrupt reports a block that lacks the share envelope or whose
// checksum does not match its contents.
var ErrCorrupt = errors.New("blockstore: block checksum mismatch")

// ChecksumStore wraps a Store so that it holds sealed shares only (see
// share.go). Put refuses a block without the envelope's header; the
// other Store methods pass through, so the reader verifies what Get
// returns; Scrub verifies every envelope in place, finding at-rest rot
// without moving payload data off the server.
type ChecksumStore struct {
	Store
}

// WithChecksums wraps a store so that it accepts sealed shares only and
// can scrub them.
func WithChecksums(inner Store) *ChecksumStore {
	return &ChecksumStore{Store: inner}
}

var _ Scrubber = (*ChecksumStore)(nil)

// Put implements Store, refusing a block that is not a sealed share.
func (s *ChecksumStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	if err := checkShareHeader(data); err != nil {
		return err
	}
	return s.Store.Put(ctx, segment, index, data)
}

// Scrub verifies every block of a segment as that segment's block at
// its index, returning the indices that are unreadable or fail.
func (s *ChecksumStore) Scrub(ctx context.Context, segment string) ([]int, error) {
	indices, err := s.List(ctx, segment)
	if err != nil {
		return nil, err
	}
	var bad []int
	for _, idx := range indices {
		if err := ctx.Err(); err != nil {
			return bad, err
		}
		share, err := s.Get(ctx, segment, idx)
		if err == nil {
			_, err = OpenShare(share, segment, idx)
		}
		if err != nil {
			bad = append(bad, idx)
		}
	}
	return bad, nil
}
