package blockstore

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// ErrCorrupt reports a block that lacks the share envelope or whose
// checksum does not match its contents.
var ErrCorrupt = errors.New("blockstore: block checksum mismatch")

// legacyMagic marks the [magic u32][CRC-32C u32][block] frame that
// servers run with the former -checksum option wrapped around every
// block they stored. Such blocks are only ever read: unwrapLegacy
// verifies and strips the frame, so a block directory written that way
// stays readable and scrubbable.
const legacyMagic = 0x52435243 // "RCRC"

// ChecksumStore wraps a Store so that it holds sealed shares only (see
// share.go). Put refuses a block without the envelope's header and
// stores an accepted one as given; Get returns the stored bytes, which
// the reader verifies; Scrub verifies every envelope in place, finding
// at-rest rot without moving payload data off the server.
type ChecksumStore struct {
	inner Store
}

// WithChecksums wraps a store so that it accepts sealed shares only and
// can scrub them.
func WithChecksums(inner Store) *ChecksumStore {
	return &ChecksumStore{inner: inner}
}

var _ Scrubber = (*ChecksumStore)(nil)

// unwrapLegacy verifies and strips the frame of a block stored inside
// one (legacyMagic); any other block comes back as it is.
func unwrapLegacy(block []byte) ([]byte, error) {
	if len(block) < 8 || binary.BigEndian.Uint32(block[0:4]) != legacyMagic {
		return block, nil
	}
	if crc32.Checksum(block[8:], castagnoli) != binary.BigEndian.Uint32(block[4:8]) {
		return nil, ErrCorrupt
	}
	return block[8:], nil
}

// Put implements Store, refusing a block that is not a sealed share.
func (s *ChecksumStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	if err := checkShareHeader(data); err != nil {
		return err
	}
	return s.inner.Put(ctx, segment, index, data)
}

// Get implements Store.
func (s *ChecksumStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	block, err := s.inner.Get(ctx, segment, index)
	if err != nil {
		return nil, err
	}
	return unwrapLegacy(block)
}

// Delete implements Store.
func (s *ChecksumStore) Delete(ctx context.Context, segment string, index int) error {
	return s.inner.Delete(ctx, segment, index)
}

// List implements Store.
func (s *ChecksumStore) List(ctx context.Context, segment string) ([]int, error) {
	return s.inner.List(ctx, segment)
}

// Close implements Store.
func (s *ChecksumStore) Close() error { return s.inner.Close() }

// Scrub verifies the envelope of every block of a segment, returning
// the indices that are unreadable or fail it (without deleting them).
func (s *ChecksumStore) Scrub(ctx context.Context, segment string) ([]int, error) {
	indices, err := s.inner.List(ctx, segment)
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
			_, err = OpenShare(share)
		}
		if err != nil {
			bad = append(bad, idx)
		}
	}
	return bad, nil
}
