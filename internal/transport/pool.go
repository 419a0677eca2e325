package transport

import (
	"math/bits"
	"sync"
)

// Scratch-buffer pool for request headers. Requests are sent as small
// header chunks that reference the caller's block buffers, so the only
// per-request allocations would be those headers — pooling them makes
// the steady-state transport cost of a request approach zero
// allocations. Payload buffers are NOT pooled here: a GET response
// body is handed to the caller, which may retain it (the decoder
// does).
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getScratch returns an empty pooled scratch buffer.
func getScratch() *[]byte {
	b := scratchPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putScratch returns a scratch buffer to the pool. Oversized buffers
// (a huge delete batch) are dropped so the pool's
// steady-state footprint stays bounded.
func putScratch(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	scratchPool.Put(b)
}

// growScratch pre-sizes scratch so subsequent appends never relocate
// the backing array out from under chunks that already reference it.
func growScratch(scratch *[]byte, need int) {
	if cap(*scratch) < need {
		*scratch = make([]byte, 0, need)
	}
}

// PUTSTREAM entry buffers come from one sync.Pool per power-of-two
// capacity class: class k holds buffers whose capacity lies in
// [2^(k-1), 2^k). A lease takes a buffer from its size's class and
// reslices it to exactly n when its capacity suffices, else allocates
// n bytes into it; a release files the buffer under its capacity. A
// stream's entries are nearly always one size (a share: block plus
// envelope), so steady traffic reuses exact-size buffers, a buffer
// never holds an entry less than half its capacity, and no mix of
// sizes can turn pooling off for the rest.
var entryPools [bits.UintSize + 1]sync.Pool

func init() {
	for i := range entryPools {
		entryPools[i].New = func() any { return new([]byte) }
	}
}

// leaseEntryBuf returns a buffer of exactly n bytes (n > 0).
func leaseEntryBuf(n int) *[]byte {
	b := entryPools[bits.Len(uint(n))].Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// releaseEntryBuf returns a leased buffer; nil is a no-op.
func releaseEntryBuf(b *[]byte) {
	if b == nil {
		return
	}
	entryPools[bits.Len(uint(cap(*b)))].Put(b)
}
