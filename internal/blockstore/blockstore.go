// Package blockstore defines the block-level storage-server interface
// of the RobuSTore framework (Ch. 4: "Storage Servers provide data
// storage at block level") and supplies three implementations: an
// in-memory store, an on-disk store, and a wrapper that injects
// latency, bandwidth limits, and faults to emulate heterogeneous
// remote disks in examples and tests.
//
// Blocks are addressed by (segment, index): a segment is one erasure-
// coded data object and the index is the coded-block number within it.
package blockstore

import (
	"context"
	"errors"
	"fmt"
)

// Errors returned by stores.
var (
	// ErrNotFound reports a missing block.
	ErrNotFound = errors.New("blockstore: block not found")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("blockstore: store closed")
	// ErrScrubUnsupported reports a Scrub against a store that cannot
	// verify share envelopes: one with no ChecksumStore in its stack,
	// such as a bare MemStore attached in process or served by a
	// transport.Server built over one.
	ErrScrubUnsupported = errors.New("blockstore: scrub unsupported")
)

// Store is the block-level storage interface. Implementations must be
// safe for concurrent use; Get must return data the caller may retain
// (implementations either copy or treat blocks as immutable).
type Store interface {
	// Put stores a block, overwriting any previous content. Put must
	// not retain data after it returns (copy if needed): callers
	// recycle block buffers through pools on the write hot path.
	Put(ctx context.Context, segment string, index int, data []byte) error
	// Get retrieves a block (ErrNotFound if absent).
	Get(ctx context.Context, segment string, index int) ([]byte, error)
	// Delete removes a block; deleting an absent block is not an error.
	Delete(ctx context.Context, segment string, index int) error
	// List returns the indices stored for a segment, ascending.
	List(ctx context.Context, segment string) ([]int, error)
	// Close releases resources.
	Close() error
}

// BatchPut is one entry of a batched put: a coded block and its
// index within the segment.
type BatchPut struct {
	Index int
	Data  []byte
}

// Batcher is implemented by stores that can move many blocks per
// call: transport.Client maps it onto its streams and the DELETEBATCH
// op, MemStore's PutBatch onto a single lock crossing and one backing
// allocation per batch. Every method returns a slice of per-entry errors parallel
// to its input — one bad block never fails the batch, and a
// store-wide failure fills every slot. The robust client serves its
// run and window calls to a local store through these methods when the
// store has them, and block by block otherwise.
//
// Like Put, PutBatch must not retain entry data after it returns.
type Batcher interface {
	// PutBatch stores the entries, overwriting previous content.
	PutBatch(ctx context.Context, segment string, puts []BatchPut) []error
	// GetBatch retrieves blocks by index (ErrNotFound per absent
	// entry); returned data follows the Get retention contract.
	GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error)
	// DeleteBatch removes blocks; absent blocks are not errors.
	DeleteBatch(ctx context.Context, segment string, indices []int) []error
}

// Scrubber is implemented by stores that can verify the share
// envelope (share.go) of a segment's blocks in place and report the
// corrupt ones — ChecksumStore locally, transport.Client via the SCRUB
// protocol op. The scrub/repair daemon uses it to detect silent
// corruption without downloading every block; a store that cannot
// verify envelopes returns ErrScrubUnsupported.
type Scrubber interface {
	// Scrub returns the indices of segment whose stored blocks fail
	// verification (unreadable, no envelope, or checksum mismatch),
	// ascending.
	Scrub(ctx context.Context, segment string) ([]int, error)
}

// validate rejects malformed addresses before they reach a backend.
func validate(segment string, index int) error {
	if segment == "" {
		return fmt.Errorf("blockstore: empty segment name")
	}
	if index < 0 {
		return fmt.Errorf("blockstore: negative block index %d", index)
	}
	return nil
}
