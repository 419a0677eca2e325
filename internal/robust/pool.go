package robust

import (
	"sync"
	"sync/atomic"

	"repro/internal/blockstore"
	"repro/internal/ltcode"
)

// Share-buffer pool: the write hot path encodes and seals every coded
// block inside one pooled buffer, so steady-state writes allocate
// ~zero per block (DESIGN.md §10). A buffer is [envelope][block bytes]
// (blockstore.SealShare). Buffers are recycled after the Put returns —
// safe because blockstore.Store.Put must not retain its data.
//
// The pool is shared across clients: buffers are sized by request and
// reused whenever their capacity suffices, so mixed block sizes
// (repairing a segment written with different options) still pool.
var shareBufPool = sync.Pool{New: func() any { return new([]byte) }}

// shareBufLeases counts outstanding leased buffers. The regression
// tests pin this to zero after every write outcome — success, short
// write, early cancel — proving no error path strands a lease; the
// cost is one atomic add per lease, which the encode that follows
// dwarfs.
var shareBufLeases atomic.Int64

// getShareBuf returns a buffer with capacity >= n, length n.
func getShareBuf(n int) *[]byte {
	shareBufLeases.Add(1)
	b := shareBufPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

// putShareBuf recycles a buffer.
func putShareBuf(b *[]byte) {
	shareBufLeases.Add(-1)
	shareBufPool.Put(b)
}

// encodeShareInto encodes block local of a chunk's graph into a pooled
// buffer, sealed as block base+local of segment name. The returned
// share aliases buf; recycle buf only after the share's last use.
func encodeShareInto(buf []byte, name string, base int, graph *ltcode.Graph, local int, blocks [][]byte) []byte {
	graph.EncodeBlockInto(buf[blockstore.ShareOverhead:], local, blocks)
	return blockstore.SealShare(buf, name, base+local)
}

// shareBufLen is the pooled-buffer size for a block: envelope plus
// payload.
func shareBufLen(blockBytes int64) int { return blockstore.ShareOverhead + int(blockBytes) }
