package blockstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// ErrCorrupt reports a block whose stored checksum does not match its
// contents.
var ErrCorrupt = errors.New("blockstore: block checksum mismatch")

// castagnoli is the CRC-32C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumMagic marks checksummed envelopes so mixed deployments fail
// loudly instead of returning frame bytes as data.
const checksumMagic = 0x52435243 // "RCRC"

// ChecksumStore wraps a Store, framing every block with a CRC-32C
// trailer on Put and verifying it on Get. A corrupted block surfaces
// as ErrCorrupt — which the RobuSTore read path treats like a missing
// block, reconstructing from other coded blocks instead (silent disk
// corruption becomes just another erasure).
type ChecksumStore struct {
	inner Store
}

// WithChecksums wraps a store with CRC-32C integrity framing.
func WithChecksums(inner Store) *ChecksumStore {
	return &ChecksumStore{inner: inner}
}

var _ Scrubber = (*ChecksumStore)(nil)

// sealPool recycles seal buffers. The inner store must not retain
// what Put hands it (Store), so a sealed frame is dead once Put
// returns; reusing its buffer replaces a zeroed allocation per stored
// block (DESIGN.md §10).
var sealPool = sync.Pool{New: func() any { return new([]byte) }}

// sealBuf returns buf emptied, grown to hold n bytes if it is short.
func sealBuf(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, 0, n)
	}
	return (*buf)[:0]
}

// appendSeal appends the [magic u32][crc u32][data] frame to dst —
// the batch path seals many blocks into one backing buffer.
func appendSeal(dst, data []byte) []byte {
	var h [8]byte
	binary.BigEndian.PutUint32(h[0:4], checksumMagic)
	binary.BigEndian.PutUint32(h[4:8], crc32.Checksum(data, castagnoli))
	dst = append(dst, h[:]...)
	return append(dst, data...)
}

// open verifies and strips the frame.
func open(framed []byte) ([]byte, error) {
	if len(framed) < 8 {
		return nil, fmt.Errorf("%w: frame too short", ErrCorrupt)
	}
	if binary.BigEndian.Uint32(framed[0:4]) != checksumMagic {
		return nil, fmt.Errorf("%w: missing checksum frame", ErrCorrupt)
	}
	want := binary.BigEndian.Uint32(framed[4:8])
	data := framed[8:]
	if crc32.Checksum(data, castagnoli) != want {
		return nil, ErrCorrupt
	}
	return data, nil
}

// Put implements Store.
func (s *ChecksumStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	buf := sealPool.Get().(*[]byte)
	defer sealPool.Put(buf)
	return s.inner.Put(ctx, segment, index, appendSeal(sealBuf(buf, 8+len(data)), data))
}

// Get implements Store, verifying integrity.
func (s *ChecksumStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	framed, err := s.inner.Get(ctx, segment, index)
	if err != nil {
		return nil, err
	}
	return open(framed)
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

// Scrub verifies every block of a segment, returning the indices that
// fail their checksum (without deleting them).
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
		framed, err := s.inner.Get(ctx, segment, idx)
		if err != nil {
			bad = append(bad, idx)
			continue
		}
		if _, err := open(framed); err != nil {
			bad = append(bad, idx)
		}
	}
	return bad, nil
}
