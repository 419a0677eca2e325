package robust

import (
	"fmt"

	"repro/internal/ltcode"
	"repro/internal/metadata"
)

// segCodec is one segment's coding machinery, built once per access:
// its chunks with their graphs (every record has a chunk table — a
// whole-segment write is one chunk), the routing of a global coded
// index to (chunk, local index), share regeneration, and the coded
// blocks a byte range touches. Global indices keep placement maps,
// scrub, rebalance and the transport unaware of chunks.
type segCodec struct {
	seg    metadata.Segment
	chunks []chunkView
}

// chunkView is one chunk's geometry and coding graph.
type chunkView struct {
	base   int   // first global coded index (ordinal * ChunkStride)
	offset int64 // first payload byte
	size   int64 // payload bytes in this chunk
	n      int   // redundancy target
	graph  *ltcode.Graph
}

// segmentCodec builds a segment's codec, its graphs from the client's
// memo.
func (c *Client) segmentCodec(seg metadata.Segment) (*segCodec, error) {
	sc := &segCodec{seg: seg, chunks: make([]chunkView, len(seg.Chunks))}
	var off int64
	for i, ch := range seg.Chunks {
		cod := seg.Coding
		cod.K, cod.N, cod.GraphSeed, cod.GraphN = ch.K, ch.N, ch.GraphSeed, ch.GraphN
		graph, err := c.cachedGraph(cod)
		if err != nil {
			return nil, err
		}
		sc.chunks[i] = chunkView{base: i * seg.ChunkStride, offset: off, size: ch.Size, n: ch.N, graph: graph}
		off += ch.Size
	}
	return sc, nil
}

// decoders returns one fresh decoder per chunk.
func (sc *segCodec) decoders(newDecoder func(*ltcode.Graph) *ltcode.Decoder) []*ltcode.Decoder {
	decs := make([]*ltcode.Decoder, len(sc.chunks))
	for i, v := range sc.chunks {
		decs[i] = newDecoder(v.graph)
	}
	return decs
}

// locate maps a global coded index to its chunk and local graph index.
// ok is false for an index outside every chunk's graph — corrupt
// metadata or placement.
func (sc *segCodec) locate(idx int) (ci, local int, ok bool) {
	if idx < 0 {
		return 0, 0, false
	}
	ci = idx / sc.seg.ChunkStride
	if ci >= len(sc.chunks) {
		return 0, 0, false
	}
	local = idx - sc.chunks[ci].base
	return ci, local, local < sc.chunks[ci].graph.N
}

// encoder returns a function that regenerates share idx of the decoded
// segment data, sealed. The share it returns is valid until its next
// call.
func (sc *segCodec) encoder(data []byte) func(idx int) ([]byte, error) {
	bb := sc.seg.Coding.BlockBytes
	blocks := make([][][]byte, len(sc.chunks))
	for i, v := range sc.chunks {
		blocks[i] = splitBlocks(data[v.offset:v.offset+v.size], bb)
	}
	buf := make([]byte, shareBufLen(bb))
	return func(idx int) ([]byte, error) {
		ci, local, ok := sc.locate(idx)
		if !ok {
			return nil, fmt.Errorf("robust: block %d outside every chunk graph", idx)
		}
		return encodeShareInto(buf, sc.seg.Name, sc.chunks[ci].base, sc.chunks[ci].graph, local, blocks[ci]), nil
	}
}

// affected returns the stored coded blocks an update of [offset,
// offset+length) must regenerate — those whose neighbor sets include
// an original block under the range (§4.3.4) — with their holders.
func (sc *segCodec) affected(offset, length int64) map[int][]string {
	touched := map[int]bool{}
	bb := sc.seg.Coding.BlockBytes
	for _, v := range sc.chunks {
		lo, hi := max(offset, v.offset), min(offset+length, v.offset+v.size)
		if lo >= hi {
			continue // the range does not touch this chunk
		}
		for o := (lo - v.offset) / bb; o <= (hi-1-v.offset)/bb; o++ {
			for _, i := range v.graph.AffectedCoded(int(o)) {
				touched[v.base+i] = true
			}
		}
	}
	holders := map[int][]string{}
	for addr, indices := range sc.seg.Placement {
		for _, i := range indices {
			if touched[i] {
				holders[i] = append(holders[i], addr)
			}
		}
	}
	return holders
}

// rangeCodec looks up segment name and builds its codec, refusing a
// byte range that is negative or runs past the segment's size: Update
// and AffectedBlocks accept the same ranges.
func (c *Client) rangeCodec(name string, offset, length int64) (metadata.Segment, *segCodec, error) {
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return seg, nil, err
	}
	if offset < 0 || length < 0 || offset+length > seg.Size {
		return seg, nil, fmt.Errorf("robust: range [%d,%d) outside segment of %d bytes", offset, offset+length, seg.Size)
	}
	sc, err := c.segmentCodec(seg)
	return seg, sc, err
}
