// Package transport implements the RobuSTore block protocol: a
// length-prefixed binary request/response protocol over TCP between
// clients and storage servers. The Client implements
// blockstore.Store, so the RobuSTore client library treats local and
// remote stores uniformly; the Server exposes any blockstore.Store on
// the network, optionally behind an admission controller (§5.4).
//
// Frame layout (all integers big-endian):
//
//	request:  [4B frame length][1B op][2B segment length][segment]
//	          [4B block index][payload...]
//	response: [4B frame length][1B status][payload...]
//
// A GET response payload is the block; LIST and SCRUB response
// payloads are sequences of 4-byte indices (stored blocks and
// verification failures respectively); an error response payload is
// the message text.
//
// Batch operations (DESIGN.md §10) reuse the request layout with the
// index field carrying the entry count:
//
//	PUTBATCH request payload:  count × [4B index][4B length][data]
//	GETBATCH/DELETEBATCH request payload: count × [4B index]
//	batch response payload (status OK): count × [4B index][1B status]
//	          [4B length][bytes]   — bytes is block data for a GET
//	          entry that succeeded, an error message otherwise
//
// Per-entry statuses mean one bad block never fails its batch. CAPS
// ([4B bitmask] response) lets new clients probe for batch support;
// servers that predate it answer with an error status and the client
// degrades to single-block operations.
//
// PUTSTREAM (mux-only) is the pipelined write op: its request body is
// the standard header (index = declared entry count) followed by
// PUTBATCH-shaped entries, but the server consumes the entries
// incrementally as REQ chunks arrive — each entry is stored as soon
// as it is complete and acknowledged immediately with one
// batch-result-shaped entry ([4B index][1B status][4B length][bytes])
// streamed back as RESP chunks, so the client learns of durable
// blocks long before the stream finishes. Each entry is read straight
// into a buffer of its exact size, and flow-control credit returns as
// entries are stored (the oldest one's as it lands), bounding server
// buffering by the stream window plus one entry instead of the
// request size.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Operation codes.
const (
	opPut         = byte(1)
	opGet         = byte(2)
	opDelete      = byte(3)
	opList        = byte(4)
	opPing        = byte(5)
	opScrub       = byte(6) // verify a segment in place, return bad indices
	opPutBatch    = byte(7)
	opGetBatch    = byte(8)
	opDeleteBatch = byte(9)
	opCaps        = byte(10) // capability probe: which batch ops the server speaks
	opMuxUpgrade  = byte(11) // upgrade this connection to the multiplexed v2 framing
	opPutStream   = byte(12) // pipelined put over one mux stream with per-entry acks
)

// Capability bits returned by CAPS.
const (
	capPutBatch    = uint32(1 << 0)
	capGetBatch    = uint32(1 << 1)
	capDeleteBatch = uint32(1 << 2)
	capMux         = uint32(1 << 3) // server accepts opMuxUpgrade (transport v2)
	capPutStream   = uint32(1 << 4) // server handles opPutStream incrementally on mux streams
	capMuxLen      = uint32(1 << 5) // server sends RESP lengths to a client that proposes muxFeatureLen
)

// capMuxData is what a client needs from a server before it upgrades:
// the mux itself and sized responses, which it requires.
const capMuxData = capMux | capMuxLen

// Response status codes.
const (
	statusOK          = byte(0)
	statusErr         = byte(1)
	statusNotFound    = byte(2)
	statusBusy        = byte(3) // admission controller refused the request
	statusUnsupported = byte(4) // server cannot perform the op (e.g. SCRUB without checksums)
)

// MaxFrame bounds a frame's size (op + header + payload); it limits
// both allocation on malformed input and the largest storable block.
const MaxFrame = 64 << 20

// request is a decoded request frame.
type request struct {
	op      byte
	segment string
	index   int
	payload []byte
}

// writeFrame writes one length-prefixed frame built from the given
// chunks.
func writeFrame(w io.Writer, chunks ...[]byte) error {
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(total))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// writeFrameVec writes one length-prefixed frame from a chunk list
// using vectored I/O (net.Buffers → writev on TCP), so a batch frame
// referencing many pooled block buffers goes out without being copied
// into one contiguous body. The chunk slice is consumed. The 4-byte
// length header is leased from frameHdrPool for the duration of the
// write (it must survive until the writev drains, which the
// synchronous WriteTo guarantees).
func writeFrameVec(w io.Writer, chunks [][]byte) error {
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	hdr := frameHdrPool.Get().(*[4]byte)
	defer frameHdrPool.Put(hdr)
	binary.BigEndian.PutUint32(hdr[:], uint32(total))
	bufs := make(net.Buffers, 0, len(chunks)+1)
	bufs = append(bufs, hdr[:])
	for _, c := range chunks {
		if len(c) > 0 {
			bufs = append(bufs, c)
		}
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// encodeRequest serializes a request frame body.
func encodeRequest(op byte, segment string, index int, payload []byte) ([]byte, error) {
	if err := checkRequestHeader(segment, index); err != nil {
		return nil, err
	}
	body := make([]byte, 0, requestHeaderLen(segment)+len(payload))
	body = appendRequestHeader(body, op, segment, index)
	return append(body, payload...), nil
}

// checkRequestHeader rejects a segment or index the request header
// cannot carry.
func checkRequestHeader(segment string, index int) error {
	if len(segment) > 0xFFFF {
		return fmt.Errorf("transport: segment name too long (%d bytes)", len(segment))
	}
	if index < 0 {
		return fmt.Errorf("transport: negative block index")
	}
	return nil
}

// requestHeaderLen is the fixed request header size before the
// payload: op + segment length + segment + index.
func requestHeaderLen(segment string) int { return 1 + 2 + len(segment) + 4 }

// appendRequestHeader appends a request header to dst (the pooled-
// buffer twin of encodeRequest; the payload travels as its own
// chunks). The segment must already be length-checked.
func appendRequestHeader(dst []byte, op byte, segment string, index int) []byte {
	var h [7]byte
	h[0] = op
	binary.BigEndian.PutUint16(h[1:3], uint16(len(segment)))
	dst = append(dst, h[:3]...)
	dst = append(dst, segment...)
	binary.BigEndian.PutUint32(h[3:7], uint32(index))
	return append(dst, h[3:7]...)
}

// peekRequest reports a request body's op and header length once
// enough of it has arrived to read them — how the mux server spots a
// PUTSTREAM stream before its body is complete.
func peekRequest(buf []byte) (op byte, hdrLen int, ok bool) {
	if len(buf) < 3 {
		return 0, 0, false
	}
	segLen := int(binary.BigEndian.Uint16(buf[1:3]))
	hdrLen = 3 + segLen + 4
	if len(buf) < hdrLen {
		return 0, 0, false
	}
	return buf[0], hdrLen, true
}

// requestHeaderNeed reports how many more bytes a partial request
// body needs before its header is complete (0 once it is): the
// fixed prefix first, then the segment and index it announces.
func requestHeaderNeed(buf []byte) int {
	if len(buf) < 3 {
		return 3 - len(buf)
	}
	hdrLen := 3 + int(binary.BigEndian.Uint16(buf[1:3])) + 4
	return max(hdrLen-len(buf), 0)
}

// decodeRequest parses a request frame body.
func decodeRequest(body []byte) (request, error) {
	if len(body) < 7 {
		return request{}, fmt.Errorf("transport: short request frame (%d bytes)", len(body))
	}
	op := body[0]
	segLen := int(binary.BigEndian.Uint16(body[1:3]))
	if len(body) < 3+segLen+4 {
		return request{}, fmt.Errorf("transport: truncated request frame")
	}
	seg := string(body[3 : 3+segLen])
	idx := int(binary.BigEndian.Uint32(body[3+segLen : 3+segLen+4]))
	payload := body[3+segLen+4:]
	return request{op: op, segment: seg, index: idx, payload: payload}, nil
}

// encodeIndices packs a LIST response payload.
func encodeIndices(indices []int) []byte {
	out := make([]byte, 4*len(indices))
	for i, idx := range indices {
		binary.BigEndian.PutUint32(out[4*i:], uint32(idx))
	}
	return out
}

// decodeIndices unpacks a LIST response payload.
func decodeIndices(payload []byte) ([]int, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("transport: malformed index list (%d bytes)", len(payload))
	}
	out := make([]int, len(payload)/4)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// putEntry is one decoded PUTBATCH request entry. The data slice
// aliases the request frame body.
type putEntry struct {
	index int
	data  []byte
}

// putBatchEntryOverhead is the per-entry header size in a PUTBATCH
// request: [4B index][4B length].
const putBatchEntryOverhead = 8

// appendPutEntryHeader appends one PUTBATCH entry header to dst; the
// entry's data travels as its own chunk (vectored write).
func appendPutEntryHeader(dst []byte, index, dataLen int) []byte {
	var h [putBatchEntryOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(index))
	binary.BigEndian.PutUint32(h[4:8], uint32(dataLen))
	return append(dst, h[:]...)
}

// decodePutEntries parses a PUTBATCH request payload. count is the
// declared entry count from the request's index field; it must match
// the payload exactly.
func decodePutEntries(count int, payload []byte) ([]putEntry, error) {
	if count < 0 || count > len(payload)/putBatchEntryOverhead {
		return nil, fmt.Errorf("transport: put batch count %d exceeds payload", count)
	}
	out := make([]putEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(payload) < putBatchEntryOverhead {
			return nil, fmt.Errorf("transport: truncated put batch entry %d", i)
		}
		idx := int(binary.BigEndian.Uint32(payload[0:4]))
		n := int(binary.BigEndian.Uint32(payload[4:8]))
		payload = payload[putBatchEntryOverhead:]
		if idx < 0 || n < 0 || n > len(payload) {
			return nil, fmt.Errorf("transport: oversized put batch entry %d (%d bytes)", i, n)
		}
		out = append(out, putEntry{index: idx, data: payload[:n]})
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after put batch entries", len(payload))
	}
	return out, nil
}

// batchResult is one decoded batch response entry. bytes aliases the
// response frame body: block data for a successful GET entry, an error
// message for a failed entry, empty otherwise.
type batchResult struct {
	index  int
	status byte
	bytes  []byte
}

// batchResultOverhead is the per-entry header size in a batch
// response: [4B index][1B status][4B length].
const batchResultOverhead = 9

// appendBatchResultHeader appends one batch response entry header to
// dst; the entry's bytes travel as their own chunk.
func appendBatchResultHeader(dst []byte, index int, status byte, n int) []byte {
	var h [batchResultOverhead]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(index))
	h[4] = status
	binary.BigEndian.PutUint32(h[5:9], uint32(n))
	return append(dst, h[:]...)
}

// decodeBatchResults parses a batch response payload.
func decodeBatchResults(payload []byte) ([]batchResult, error) {
	out := make([]batchResult, 0, len(payload)/batchResultOverhead)
	for len(payload) > 0 {
		if len(payload) < batchResultOverhead {
			return nil, fmt.Errorf("transport: truncated batch result header (%d bytes)", len(payload))
		}
		idx := int(binary.BigEndian.Uint32(payload[0:4]))
		status := payload[4]
		n := int(binary.BigEndian.Uint32(payload[5:9]))
		payload = payload[batchResultOverhead:]
		if idx < 0 || n < 0 || n > len(payload) {
			return nil, fmt.Errorf("transport: oversized batch result (%d bytes)", n)
		}
		out = append(out, batchResult{index: idx, status: status, bytes: payload[:n]})
		payload = payload[n:]
	}
	return out, nil
}

// encodeCaps packs the CAPS response payload.
func encodeCaps(mask uint32) []byte {
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], mask)
	return out[:]
}

// decodeCaps unpacks a CAPS response payload.
func decodeCaps(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("transport: malformed caps payload (%d bytes)", len(payload))
	}
	return binary.BigEndian.Uint32(payload), nil
}
